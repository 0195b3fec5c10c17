// A numerical multifrontal Cholesky factorization driven by the assembly
// tree — the system the paper's model abstracts.
//
// This closes the loop on the reproduction: the traversal algorithms
// operate on the (n_i, f_i) weight model, and this engine executes the
// *actual* factorization those weights describe. The per-front work
// (allocate front, assemble original entries, extend-add the children's
// contribution blocks, dense partial Cholesky, emit the contribution
// block) lives in FrontalEngine::process_front, a reentrant kernel that is
// safe to run concurrently for distinct supernodes: the serial driver
// below walks it along a planned traversal, and factor_parallel
// (multifrontal/numeric_parallel.hpp) dispatches it as the task body of
// the memory-bounded threaded executor.
//
// The front structure (the pattern of L and the member columns) comes
// from build_assembly_tree: a factorization does no symbolic work.
//
// The dense math inside a front — the partial Cholesky and the
// contribution-block scatter-add — is delegated to the FrontKernel
// (dense/front_kernel.hpp): cache-blocked panels whose trailing updates
// lease idle pool workers for large fronts, bit-identical to the scalar
// loop under every setting. The engine keeps everything the kernel must
// not perturb: the front row set, the tree-ordered extend-add of
// children (schedule-exact sums), the contribution-block slot protocol and
// the LiveEntryMeter accounting, so the Eq. 1 modeled/measured invariants
// hold under every kernel configuration.
//
// Measured vs. modeled memory: the engine counts *measured* live factor
// entries (resident contribution blocks + active fronts) in an atomic
// meter, following the model's carve-out convention — a front's
// contribution block is part of the front until the front is released, so
// per-front occupancy moves m² → m² − Σ(children CBs) → (m−η)² and the
// meter's peak is only raised when a front is allocated. For trees built
// with perfect amalgamation only, the measured live entries at every step
// of a serial schedule equal the abstract Eq. 1 in-tree transient of
// core/check.hpp exactly (full-square frontal storage, the paper's
// convention); with relaxed amalgamation the model pads fronts with
// explicit zeros, so measured memory is bounded by the model. Both facts
// are asserted in the tests.
//
// Scope: double-precision Cholesky of symmetric positive definite matrices;
// fronts are dense full squares; contribution blocks live until the parent
// assembles them (any valid bottom-up traversal, not just postorders).
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "core/traversal.hpp"
#include "dense/front_kernel.hpp"
#include "sparse/matrix.hpp"
#include "sparse/pattern.hpp"
#include "symbolic/assembly_tree.hpp"
#include "tree/tree.hpp"

namespace treemem {

// SymmetricMatrix and make_spd_matrix moved down into sparse/matrix.hpp
// (so the Matrix Market reader can produce real-valued matrices); the
// include above keeps every existing consumer of this header working.

/// Lower-triangular factor in CSC form (pattern includes the diagonal).
struct CholeskyFactor {
  SparsePattern pattern;       ///< lower triangle of L
  std::vector<double> values;  ///< aligned with pattern.row_idx()
};

/// Atomic live-entry meter for the engine's *measured* memory. Increments
/// are applied with `raise`, which also advances the high-water mark;
/// decrements (and the carve-out front→CB shrink) go through `lower`,
/// which never touches the peak — mirroring the at-dispatch peak
/// convention of the paper's Eq. 1 checkers.
class LiveEntryMeter {
 public:
  /// Adds `delta` >= 0 and returns the new occupancy; raises the peak.
  Weight raise(Weight delta);
  /// Subtracts `delta` >= 0 and returns the new occupancy.
  Weight lower(Weight delta);

  Weight current() const { return current_.load(std::memory_order_relaxed); }
  Weight peak() const { return peak_.load(std::memory_order_relaxed); }

 private:
  std::atomic<Weight> current_{0};
  std::atomic<Weight> peak_{0};
};

/// Per-thread scratch for one front elimination. Obtain via
/// FrontalEngine::make_workspace(); a workspace may be reused for any
/// number of sequential process_front calls but never shared between two
/// concurrent ones.
class FrontWorkspace {
 public:
  FrontWorkspace() = default;

 private:
  friend class FrontalEngine;
  std::vector<Index> rows;       ///< front row set, ascending
  std::vector<Index> front_pos;  ///< global row → front row, -1 outside
  std::vector<double> front;     ///< dense front, column-major
};

/// The reentrant numeric core of the multifrontal factorization: one
/// instance per factorization run, shared by every worker.
///
/// Thread-safety contract: process_front(s) may run concurrently with
/// process_front(t) for s ≠ t, provided each call owns its workspace and
/// every child of s completed (with a happens-before edge) before s
/// starts — exactly what the serial driver and the executor's precedence
/// guarantee. Contribution-block slots are written once by the owning
/// supernode and consumed once by its parent; factor columns are disjoint
/// per supernode; flop and live-entry counters are atomic.
class FrontalEngine {
 public:
  /// Validates that `assembly` matches `matrix` and carries its front
  /// structure (build_assembly_tree output; amalgamate() output is rejected
  /// with treemem::Error). `kernel` configures the dense front kernel.
  FrontalEngine(const SymmetricMatrix& matrix, const AssemblyTree& assembly,
                const KernelConfig& kernel = {});

  FrontWorkspace make_workspace() const;

  /// Executes supernode s end to end: allocate the front, assemble the
  /// original entries of the member columns, extend-add (and release) the
  /// children's contribution blocks, dense partial Cholesky of the leading
  /// η pivots, emit the factor columns and store the contribution block.
  /// Throws treemem::Error if a pivot is not positive (matrix not SPD) or
  /// a matrix entry lies outside the analyzed factor pattern.
  void process_front(NodeId s, FrontWorkspace& ws);

  /// Estimated dense-elimination flops per supernode, from the symbolic
  /// front sizes — the natural duration/priority proxy for scheduling.
  std::vector<double> estimated_front_flops() const;

  /// Measured live factor entries right now / at the run's high-water mark
  /// (full-square storage; multiply by sizeof(double) for bytes).
  Weight live_entries() const { return meter_.current(); }
  Weight peak_live_entries() const { return meter_.peak(); }

  /// Measured occupancy right after front s was allocated (its at-dispatch
  /// transient) / right after it released its front. Only meaningful after
  /// s was processed; on a single-worker schedule these are the serial
  /// stepwise profiles.
  Weight transient_at_start(NodeId s) const {
    return transient_at_start_[static_cast<std::size_t>(s)];
  }
  Weight live_after(NodeId s) const {
    return live_after_[static_cast<std::size_t>(s)];
  }

  /// Total floating-point operations of the dense eliminations so far.
  long long flops() const { return flops_.load(std::memory_order_relaxed); }

  /// The kernel's lease grant/denial tallies for this engine's run (all
  /// zeros when no trailing update cleared the volume gate).
  KernelLeaseStats kernel_lease_stats() const {
    return kernel_->lease_stats();
  }

  /// The factor (valid once every supernode was processed). take_factor
  /// moves it out and leaves the engine empty.
  const CholeskyFactor& factor() const { return factor_; }
  CholeskyFactor take_factor() { return std::move(factor_); }

 private:
  const SymmetricMatrix* matrix_;
  const AssemblyTree* assembly_;
  const FrontStructure* fronts_;  ///< assembly_->fronts, read only
  std::unique_ptr<const FrontKernel> kernel_;
  CholeskyFactor factor_;
  /// Live contribution block per completed supernode: dense, column-major
  /// over fronts_->update_rows(s) (full-square storage, the paper's
  /// accounting convention).
  std::vector<std::vector<double>> blocks_;
  std::vector<Weight> transient_at_start_;
  std::vector<Weight> live_after_;
  LiveEntryMeter meter_;
  std::atomic<long long> flops_{0};
};

/// Result of a (serial) multifrontal run.
struct MultifrontalResult {
  CholeskyFactor factor;
  /// Largest number of simultaneously live matrix entries (resident
  /// contribution blocks + the active front, both stored as full squares as
  /// in the paper's model). Factor entries stream out and are not counted,
  /// matching the out-of-core multifrontal convention.
  Weight peak_live_entries = 0;
  /// Live entries after each supernode's elimination (length = tree size).
  std::vector<Weight> live_after_step;
  /// Total floating-point operations of the dense eliminations.
  long long flops = 0;
};

/// Factors `matrix` (already permuted!) with the multifrontal method,
/// serially along the given traversal.
///
/// `assembly` must come from build_assembly_tree on matrix.pattern();
/// `bottom_up_order` is an in-tree traversal of assembly.tree (children
/// before parents) — e.g. reverse_traversal(minmem_optimal(tree).order).
/// Throws if the order is invalid or the matrix does not match the tree.
/// `kernel` configures the dense front kernel. For the threaded
/// counterpart see factor_parallel in multifrontal/numeric_parallel.hpp.
MultifrontalResult multifrontal_cholesky(const SymmetricMatrix& matrix,
                                         const AssemblyTree& assembly,
                                         const Traversal& bottom_up_order,
                                         const KernelConfig& kernel = {});

/// Frobenius norm of A − L·Lᵀ divided by the norm of A — the correctness
/// metric for factorization tests.
double relative_residual(const SymmetricMatrix& matrix,
                         const CholeskyFactor& factor);

/// ‖A·x − b‖₂ / ‖b‖₂ — the correctness metric for solves (shared by the
/// CLI, the examples and the facade tests).
double relative_residual(const SymmetricMatrix& matrix,
                         const std::vector<double>& x,
                         const std::vector<double>& b);

/// Solves A x = b via the factor (forward + backward substitution).
std::vector<double> solve_with_factor(const CholeskyFactor& factor,
                                      std::vector<double> rhs);

}  // namespace treemem
