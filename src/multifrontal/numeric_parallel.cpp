#include "multifrontal/numeric_parallel.hpp"

#include <algorithm>
#include <vector>

#include "core/in_tree.hpp"
#include "multifrontal/task_tree.hpp"
#include "parallel/executor.hpp"

namespace treemem {

ParallelFactorResult factor_parallel(const SymmetricMatrix& matrix,
                                     const AssemblyTree& assembly,
                                     const ParallelFactorOptions& options,
                                     NumericWorkspace* storage) {
  TM_CHECK(options.workers >= 1, "factor_parallel: need at least one worker");
  FrontalEngine engine(matrix, assembly, options.kernel, storage);

  // The executor schedules the contracted task tree: cheap subtrees run
  // whole, in witness order, as one task each (multifrontal/task_tree.hpp).
  // Flop-count durations drive both the contraction cutoff and the
  // priority ranks. Without a planned witness the MinMem optimum stands
  // in, as it does for lookahead admission.
  const TaskTree tasks = contract_subtrees(
      assembly.tree, estimated_front_flops(*assembly.fronts),
      options.serial_witness.empty()
          ? in_tree_minmem_optimal(assembly.tree).order
          : options.serial_witness,
      options.workers);
  // One front workspace per executor lane: the executor numbers its lanes
  // [0, min(workers, tasks)) and never runs two bodies on one lane at once.
  engine.reserve_lanes(std::min<std::size_t>(
      static_cast<std::size_t>(options.workers),
      static_cast<std::size_t>(tasks.size())));

  ExecutorOptions exec_options;
  exec_options.schedule = {.workers = options.workers,
                           .memory_budget = options.memory_budget,
                           .priority = options.priority,
                           .admission = options.admission,
                           .serial_witness = tasks.witness};
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

  const ParallelScheduleResult run = execute_task_tree(
      tasks.tree, exec_options, tasks.durations, [&](NodeId task, int lane) {
        for (const NodeId s : tasks.fronts_of(task)) {
          engine.process_front(s, static_cast<std::size_t>(lane));
        }
      });

  ParallelFactorResult result;
  result.feasible = run.feasible;
  result.modeled_peak_entries = run.peak_memory;
  result.measured_peak_entries = engine.peak_live_entries();
  result.flops = engine.flops();
  result.factor_seconds = run.makespan;
  result.speedup = run.speedup;
  result.tasks = tasks.size();
  if (!run.feasible) {
    // Factor left empty: the run did not complete. The engine gives the
    // panels back to the storage as it goes out of scope, and the lanes
    // never left it, for the caller's serial fallback.
    return result;
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
