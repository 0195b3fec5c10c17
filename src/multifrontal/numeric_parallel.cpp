#include "multifrontal/numeric_parallel.hpp"

#include <mutex>
#include <utility>
#include <vector>

#include "core/in_tree.hpp"
#include "multifrontal/task_tree.hpp"
#include "parallel/executor.hpp"

namespace treemem {

namespace {

/// A small pool of front workspaces, one in flight per worker. A task
/// checks one out for all the fronts it runs; the pool mutex is negligible
/// next to the dense kernels it brackets.
class WorkspacePool {
 public:
  WorkspacePool(const FrontalEngine& engine, int workers) {
    free_.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      free_.push_back(engine.make_workspace());
    }
  }

  FrontWorkspace acquire() {
    std::lock_guard<std::mutex> lock(mutex_);
    TM_ASSERT(!free_.empty(), "workspace pool exhausted: more concurrent "
                              "fronts than workers");
    FrontWorkspace ws = std::move(free_.back());
    free_.pop_back();
    return ws;
  }

  void release(FrontWorkspace ws) {
    std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(std::move(ws));
  }

 private:
  std::mutex mutex_;
  std::vector<FrontWorkspace> free_;
};

}  // namespace

ParallelFactorResult factor_parallel(const SymmetricMatrix& matrix,
                                     const AssemblyTree& assembly,
                                     const ParallelFactorOptions& options) {
  TM_CHECK(options.workers >= 1, "factor_parallel: need at least one worker");
  FrontalEngine engine(matrix, assembly, options.kernel);
  WorkspacePool pool(engine, options.workers);

  // The executor schedules the contracted task tree: cheap subtrees run
  // whole, in witness order, as one task each (multifrontal/task_tree.hpp).
  // Flop-count durations drive both the contraction cutoff and the
  // priority ranks. Without a planned witness the MinMem optimum stands
  // in, as it does for lookahead admission.
  const TaskTree tasks = contract_subtrees(
      assembly.tree, engine.estimated_front_flops(),
      options.serial_witness.empty()
          ? in_tree_minmem_optimal(assembly.tree).order
          : options.serial_witness,
      options.workers);

  ExecutorOptions exec_options;
  exec_options.workers = options.workers;
  exec_options.memory_budget = options.memory_budget;
  exec_options.priority = options.priority;
  exec_options.admission = options.admission;
  exec_options.serial_witness = tasks.witness;
  exec_options.lease_idle_workers = options.lease_idle_workers;
  // Tree level and front level draw from the same pool: whichever pool
  // the kernel leases from is the one the executor recruits stints from
  // (tests pass a private pool through the kernel config for
  // deterministic counters).
  exec_options.pool = options.kernel.pool;
  exec_options.trace_labels.reserve(static_cast<std::size_t>(tasks.size()));
  for (NodeId t = 0; t < tasks.size(); ++t) {
    exec_options.trace_labels.push_back(
        {tasks.root_of(t), static_cast<NodeId>(tasks.fronts_of(t).size())});
  }

  const ExecutorResult run = execute_task_tree(
      tasks.tree, exec_options, tasks.durations, [&](NodeId task) {
        FrontWorkspace ws = pool.acquire();
        try {
          for (const NodeId s : tasks.fronts_of(task)) {
            engine.process_front(s, ws);
          }
        } catch (...) {
          pool.release(std::move(ws));  // keep the checkout exception-safe
          throw;
        }
        pool.release(std::move(ws));
      });

  ParallelFactorResult result;
  result.feasible = run.feasible;
  result.modeled_peak_entries = run.peak_memory;
  result.measured_peak_entries = engine.peak_live_entries();
  result.flops = engine.flops();
  result.factor_seconds = run.makespan;
  result.speedup = run.speedup;
  result.tasks = tasks.size();
  const KernelLeaseStats lease_stats = engine.kernel_lease_stats();
  result.leases_granted = lease_stats.leases_granted;
  result.lease_denied = lease_stats.leases_denied;
  if (!run.feasible) {
    return result;  // factor left empty: the run did not complete
  }

  TM_ASSERT(engine.live_entries() == 0,
            "contribution blocks leaked: " << engine.live_entries());
  TM_ASSERT(result.measured_peak_entries <= result.modeled_peak_entries,
            "measured live entries exceeded the Eq. 1 model: "
                << result.measured_peak_entries << " > "
                << result.modeled_peak_entries);

  // Per supernode: each task's fronts, in the order it ran them.
  const auto p = static_cast<std::size_t>(assembly.tree.size());
  result.completion_order.reserve(p);
  result.transient_per_step.reserve(p);
  result.live_after_step.reserve(p);
  for (const NodeId task : run.completion_order) {
    for (const NodeId s : tasks.fronts_of(task)) {
      result.completion_order.push_back(s);
      result.transient_per_step.push_back(engine.transient_at_start(s));
      result.live_after_step.push_back(engine.live_after(s));
    }
  }
  result.factor = engine.take_factor();
  return result;
}

}  // namespace treemem
