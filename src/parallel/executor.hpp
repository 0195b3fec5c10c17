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
// multifrontal/numeric_parallel.hpp dispatches FrontalEngine::process_front
// per assembly-tree task, so the executor schedules actual frontal-matrix
// kernels); bench/parallel_tradeoff passes a calibrated arithmetic burner
// so measured speedups reflect core throughput. As fallbacks for
// validation without a payload, callers can instead use synthetic
// spin-work via ExecutorOptions::spin_seconds_per_unit, which busy-waits
// `duration(i) * spin_seconds_per_unit` wall-clock seconds per task (a
// quick way to make measured makespans comparable to the simulator's
// modeled ones when workers don't exceed physical cores), or neither, in
// which case tasks complete instantly and only the scheduling machinery is
// exercised.
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

struct ExecutorOptions {
  int workers = 4;
  /// Shared memory bound; kInfiniteWeight disables the constraint.
  Weight memory_budget = kInfiniteWeight;
  ParallelPriority priority = ParallelPriority::kCriticalPath;
  /// How ready tasks are admitted against the budget; lookahead consults
  /// `serial_witness` (see ScheduleCore) and never stalls when the budget
  /// covers its serial peak.
  AdmissionPolicy admission = AdmissionPolicy::kGreedy;
  /// Optional bottom-up witness traversal for the lookahead policy;
  /// empty = the MinMem optimum.
  Traversal serial_witness = {};
  /// Fallback when no TaskBody payload is supplied: synthetic busy-wait per
  /// duration unit (seconds); zero = tasks complete instantly. Real runs
  /// (factor_parallel, bench payloads) pass a TaskBody and leave this 0.
  double spin_seconds_per_unit = 0.0;
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
};

struct ExecutorResult {
  /// False iff the run could not complete under the memory bound: either
  /// some task's transient exceeds M outright, or the greedy schedule
  /// stalled with stranded resident files (matching the simulator's notion
  /// of a memory deadlock).
  bool feasible = false;
  /// Measured wall-clock seconds from run start to the last completion.
  double makespan = 0.0;
  /// Peak of the accounted shared-memory occupancy; never exceeds the
  /// budget on feasible runs.
  Weight peak_memory = 0;
  /// Σ measured task seconds / makespan — the achieved parallel speedup.
  double speedup = 0.0;
  /// Measured intervals (seconds since run start), in node order.
  std::vector<TaskInterval> gantt;
  /// Tasks in completion order — a valid bottom-up (in-tree) traversal.
  Traversal completion_order;
};

/// Runs the task tree on options.workers threads with default durations
/// (see default_task_durations) and no payload beyond the optional
/// spin-work.
ExecutorResult execute_task_tree(const Tree& tree,
                                 const ExecutorOptions& options);

/// Full control: explicit durations (they drive priorities and spin-work)
/// and an optional real payload per task.
ExecutorResult execute_task_tree(const Tree& tree,
                                 const ExecutorOptions& options,
                                 const std::vector<double>& durations,
                                 const TaskBody& body = {});

}  // namespace treemem
