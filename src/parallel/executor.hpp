// A real thread-pool executor for memory-bounded multifrontal task trees —
// the promotion of parallel_sim from model to machine.
//
// Semantics mirror the simulator exactly (both drive the same ScheduleCore):
// a task is ready when all its children finished; while it runs it holds the
// Eq. 1 transient (children files + n_i + f_i); admission is gated on the
// shared budget M; ready tasks are tried in priority order, skipping those
// that do not currently fit. The difference is the clock: up to `w` workers
// pull tasks from the core's ready heap under one scheduler mutex (idle
// lanes park on a condvar that completions signal) and run real payloads, so
// makespan/speedup are *measured*, not modeled, while the memory accounting
// stays exact (an atomic accountant of modeled bytes).
//
// Since the persistent runtime (parallel/worker_pool.hpp) the executor
// spawns no threads: the calling thread anchors the run and the rest of
// the crew is recruited from the process-wide WorkerPool for whole
// scheduling stints. Under ExecutorOptions::lease_idle_workers (default) a
// recruited worker whose try_start finds nothing ready returns to the pool
// mid-run instead of parking — so a large root front's trailing-update
// lease can absorb exactly the workers tree-level scheduling has left
// idle — and is re-recruited when a completion readies new work.
//
// The primary mode is a real TaskBody payload: the flagship is the
// parallel numeric multifrontal engine (factor_parallel in
// multifrontal/numeric_parallel.hpp hands it a contracted task tree whose
// tasks run FrontalEngine::process_front for one front or for a whole
// subtree, so the executor schedules actual frontal-matrix kernels);
// bench/parallel_tradeoff passes a calibrated arithmetic burner
// so measured speedups reflect core throughput. Without a payload, tasks
// complete instantly and only the scheduling machinery is exercised.
//
// Options and result are the simulator's: ExecutorOptions::schedule is the
// same ParallelOptions simulate_parallel_traversal takes, and both return
// a ParallelScheduleResult (here with measured seconds).
//
// Determinism: with w = 1 the executor takes exactly the simulator's
// scheduling decisions (same greedy rule, same tie-breaks), so its
// completion order, feasibility and peak match the w = 1 simulation — and
// the peak equals the serial in-tree checker's Eq. 1 peak of that order.
// With w > 1 the interleaving (and hence gantt and peak) may vary run to
// run, but schedule-independent outputs — the set of executed tasks, the
// per-task payload results, precedence, the budget bound on the peak, and
// the final resident memory (the root file) — are invariant.
#pragma once

#include <functional>
#include <vector>

#include "parallel/schedule_core.hpp"
#include "tree/tree.hpp"

namespace treemem {

class WorkerPool;

/// Per-task payload, invoked on a worker thread. Must be thread-safe across
/// distinct nodes (two bodies never run concurrently for the same node; a
/// node's body runs strictly after all its children's bodies returned).
/// Exceptions thrown by a body abort the run and are rethrown to the caller
/// after all workers joined.
using TaskBody = std::function<void(NodeId)>;

/// What a task's lane span names in a trace: the supernode it stands for
/// and the number of fronts it runs (a caller that runs a whole subtree as
/// one task names the subtree root).
struct TaskLabel {
  NodeId node = kNoNode;
  NodeId fronts = 1;
};

struct ExecutorOptions {
  /// Workers, budget, priority and admission — the simulator's options.
  ParallelOptions schedule;
  /// Elastic crewing (default): a recruited worker that finds no ready
  /// task ends its stint and returns to the worker pool — where an
  /// intra-front lease (a large root front's trailing update) can pick it
  /// up — and is re-recruited the moment scheduling frees new ready work.
  /// When false the executor claims its full crew up front and parks idle
  /// workers on its own condvar for the whole run (the root-front
  /// scenario's comparison configuration in bench/regression_report).
  bool lease_idle_workers = true;
  /// Worker source; nullptr = the process-wide WorkerPool::instance().
  /// The calling thread always anchors the run (guaranteed progress even
  /// when the pool has nothing idle), so a run needs zero pool workers to
  /// complete — it just runs serially.
  WorkerPool* pool = nullptr;
  /// Trace labels per task; empty = each task names itself, one front.
  /// Only the `front` lane spans read them.
  std::vector<TaskLabel> trace_labels = {};
};

/// Runs the task tree on options.schedule.workers threads with default
/// durations (see default_task_durations) and no payload: tasks complete
/// instantly.
ParallelScheduleResult execute_task_tree(const Tree& tree,
                                         const ExecutorOptions& options);

/// Full control: explicit durations (they drive priorities) and an
/// optional real payload per task.
ParallelScheduleResult execute_task_tree(const Tree& tree,
                                         const ExecutorOptions& options,
                                         const std::vector<double>& durations,
                                         const TaskBody& body = {});

}  // namespace treemem
