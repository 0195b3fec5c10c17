// Parallel numeric multifrontal Cholesky: the FrontalEngine kernels of
// multifrontal/numeric.hpp dispatched through the memory-bounded threaded
// executor of parallel/executor.hpp — the end-to-end system the paper's
// traversal model abstracts, running for real.
//
// Tasks. The executor does not see one task per supernode. It sees the
// contracted task tree of multifrontal/task_tree.hpp: every maximal subtree
// with more than one front whose summed estimated flops are at most
// total / (2·w) is one task, provided the serial witness runs it
// contiguously. A subtree task runs its fronts through process_front on
// one lane and one workspace, in witness order. The fronts above the
// cutoff, where the large separators sit, stay one task each, and their
// trailing updates lease the pool workers the tree level leaves idle (see
// dense/front_kernel.hpp). On a 2-D nested-dissection grid this turns tens
// of thousands of tiny fronts, each paying a scheduler round trip and a
// workspace checkout, into a few dozen tasks.
//
// Memory. This is the paper's model applied to a subtree: a subtree task's
// output file is its root's f_i and its MemReq is the Eq. 1 peak of the
// restricted witness order, so the executor's admission accounting stays
// exact. The contiguity rule keeps the witness's peak: the witness with
// each contracted subtree replaced by its task has the same Eq. 1 peak, so
// lookahead admission never stalls at a budget that covers the witness
// peak, even when the witness is a non-postorder MinMem order. The engine
// independently meters *measured* live factor entries. On every run
// measured occupancy is bounded by the modeled one (fronts never exceed
// their padded model weights, and a subtree never exceeds its serial
// peak), and on single-worker runs over perfectly amalgamated trees the
// two agree step for step. Both facts are pinned by
// tests/multifrontal/numeric_parallel_test.cpp.
//
// Results stay per supernode: completion_order, transient_per_step and
// live_after_step expand each task into its fronts in the order it ran
// them. `speedup` is the executor's busy time per task summed over tasks,
// divided by the makespan.
//
// The factor is schedule-exact: fronts write disjoint factor panels and
// extend-add walks children in tree order, so every worker count and every
// interleaving produces bit-identical values to the serial engine.
#pragma once

#include "multifrontal/numeric.hpp"
#include "parallel/schedule_core.hpp"

namespace treemem {

struct ParallelFactorOptions {
  int workers = 4;
  /// Budget on the *modeled* live entries (Eq. 1 accounting over the
  /// assembly tree's n_i/f_i weights); kInfiniteWeight disables it.
  Weight memory_budget = kInfiniteWeight;
  ParallelPriority priority = ParallelPriority::kCriticalPath;
  /// How tasks are admitted against the budget. The greedy default can
  /// deadlock under a tight budget; lookahead consults `serial_witness`
  /// and never stalls when the budget covers its serial peak. The factor
  /// stays bit-identical across policies (schedule-exact numerics —
  /// policies only reorder the schedule).
  AdmissionPolicy admission = AdmissionPolicy::kGreedy;
  /// The plan's bottom-up traversal of the assembly tree: the order
  /// subtree tasks run their fronts in, and the lookahead policy's
  /// witness. Empty = the MinMem optimum.
  Traversal serial_witness = {};
  /// Dense front kernel settings (dense/front_kernel.hpp).
  KernelConfig kernel = {};
  /// Elastic crewing (ExecutorOptions::lease_idle_workers): tree-level
  /// workers with no ready task return to the persistent pool mid-run,
  /// where a large front's trailing-update lease can absorb them. Off =
  /// the full crew is held for the whole run (the root-front scenario's
  /// comparison configuration). The factor is bit-identical either way
  /// (schedule-exact numerics).
  bool lease_idle_workers = true;
};

struct ParallelFactorResult {
  /// False iff the run could not complete under the memory budget (some
  /// front's transient or the witness peak exceeds it outright, or the
  /// greedy schedule stalled). The factor is only valid on feasible runs.
  bool feasible = false;
  CholeskyFactor factor;
  long long flops = 0;
  /// Engine-measured peak of live factor entries (resident contribution
  /// blocks + active fronts, full-square storage). Always <= the modeled
  /// peak, hence <= the budget on feasible runs.
  Weight measured_peak_entries = 0;
  /// Executor-accounted Eq. 1 peak over the assembly-tree weights.
  Weight modeled_peak_entries = 0;
  /// Measured wall-clock seconds of the factorization (executor makespan).
  double factor_seconds = 0.0;
  /// Σ per-task busy seconds / makespan — achieved parallel speedup.
  double speedup = 0.0;
  /// Tasks the executor scheduled (subtree tasks plus one-front tasks).
  NodeId tasks = 0;
  /// Supernodes in completion order — a valid bottom-up traversal.
  Traversal completion_order;
  /// Intra-front lease tallies of the run's kernel.
  KernelLeaseStats lease_stats;
  /// Measured occupancy at each front's allocation instant / right after
  /// each front's release, in completion order. On w = 1 these are the
  /// serial stepwise memory profiles (and live_after_step.back() == 0).
  std::vector<Weight> transient_per_step;
  std::vector<Weight> live_after_step;
};

/// Factors `matrix` (already permuted!) with options.workers threads over
/// the assembly tree, under the modeled memory budget. Produces the same
/// factor as multifrontal_cholesky (bit-exact). Throws treemem::Error if
/// the matrix is not positive definite or does not match the tree; the
/// error surfaces through the executor's exception-propagation contract
/// (workers drain and join, then the first error is rethrown).
///
/// The run borrows `storage` (nullptr = a fresh workspace for this run
/// only): the panel buffer and one lane per worker. An infeasible run
/// gives both back, so a serial fallback on the same storage reuses them.
ParallelFactorResult factor_parallel(const SymmetricMatrix& matrix,
                                     const AssemblyTree& assembly,
                                     const ParallelFactorOptions& options = {},
                                     NumericWorkspace* storage = nullptr);

/// Convenience overload matching the "matrix, tree, budget, workers" call
/// shape of the bench and tests.
inline ParallelFactorResult factor_parallel(const SymmetricMatrix& matrix,
                                            const AssemblyTree& assembly,
                                            Weight memory_budget,
                                            int workers) {
  ParallelFactorOptions options;
  options.workers = workers;
  options.memory_budget = memory_budget;
  return factor_parallel(matrix, assembly, options);
}

}  // namespace treemem
