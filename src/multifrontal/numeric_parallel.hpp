// Parallel numeric multifrontal Cholesky: the FrontalEngine kernels of
// multifrontal/numeric.hpp dispatched through the memory-bounded threaded
// executor of parallel/executor.hpp — the end-to-end system the paper's
// traversal model abstracts, running for real.
//
// Each assembly-tree task body allocates its front, extend-adds its
// children's contribution blocks, runs the dense partial Cholesky and
// emits its contribution block; the executor provides the precedence
// (children complete before the parent starts) and gates admission on the
// abstract Eq. 1 transient accounting, which remains the source of truth
// for the memory budget. The engine independently meters *measured* live
// factor entries; on every run measured occupancy is bounded by the
// modeled occupancy (fronts never exceed their padded model weights), and
// on single-worker runs over perfectly amalgamated trees the two agree
// step for step — both facts are pinned by
// tests/multifrontal/numeric_parallel_test.cpp.
//
// The factor is schedule-exact: fronts write disjoint factor columns and
// extend-add walks children in tree order, so every worker count and every
// interleaving produces bit-identical values to the serial engine. The
// front kernel (options.kernel) composes with the tree-level parallelism:
// its trailing updates lease the pool workers the tree level leaves idle
// for the large root fronts, still bit-identical to the scalar reference
// (see dense/front_kernel.hpp).
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
  /// How fronts are admitted against the budget. The greedy default can
  /// deadlock under a tight budget; lookahead consults `serial_witness`
  /// and never stalls when the budget covers its serial peak. The factor
  /// stays bit-identical across policies (schedule-exact numerics —
  /// policies only reorder the schedule).
  AdmissionPolicy admission = AdmissionPolicy::kGreedy;
  /// Optional bottom-up witness traversal of the assembly tree for the
  /// lookahead policy; empty = the MinMem optimum.
  Traversal serial_witness = {};
  /// Dense front kernel settings (dense/front_kernel.hpp).
  KernelConfig kernel = {};
  /// Elastic crewing (ExecutorOptions::lease_idle_workers): tree-level
  /// workers with no ready front return to the persistent pool mid-run,
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
  /// Σ per-front busy seconds / makespan — achieved parallel speedup.
  double speedup = 0.0;
  /// Supernodes in completion order — a valid bottom-up traversal.
  Traversal completion_order;
  /// Intra-front lease tallies of the run's kernel: panels that cleared
  /// the volume gate and got pool workers / found none idle and ran
  /// inline.
  long long leases_granted = 0;
  long long lease_denied = 0;
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
ParallelFactorResult factor_parallel(const SymmetricMatrix& matrix,
                                     const AssemblyTree& assembly,
                                     const ParallelFactorOptions& options = {});

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
