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
// The front structure (the member columns and front rows of every
// supernode) comes from build_assembly_tree: a factorization does no
// symbolic work. The factor is supernodal: each front emits its η factor
// columns as one dense panel over its front rows, one contiguous copy per
// column, relaxed zeros included (CholeskyFactor below).
//
// The entry contract: a matrix entry (r, j), r ≥ j, is assembled into the
// front of the supernode holding column j. An entry inside that front is
// factored exactly, whether or not it lies in the pattern the tree was
// analyzed on (relaxed fronts carry rows beyond L(:, j)); an entry outside
// every front is rejected with treemem::Error.
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
// convention); with relaxed amalgamation — and the chain merge that
// build_assembly_tree runs after it for relax > 0 — the model pads fronts
// with explicit zeros, so measured memory is bounded by the model. The
// chain merge trades a few padded rows per merged link for one front
// instead of a chain of fronts that each zero, extend-add and store
// nearly the same contribution block. Both facts are asserted in the
// tests.
//
// Storage: the factor's panel buffer and the per-lane front workspaces
// live in a NumericWorkspace that a run borrows (NumericWorkspace below).
// A Solver keeps one for its whole lifetime, so a refactorization writes
// into pages that are already resident; the entry points called without
// one build a fresh workspace that lives for that run only. Contribution
// blocks are still allocated per front.
//
// Scope: double-precision Cholesky of symmetric positive definite matrices;
// fronts are dense full squares; contribution blocks live until the parent
// assembles them (any valid bottom-up traversal, not just postorders).
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
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

/// An allocator whose value construction default-initializes: resizing a
/// vector of doubles leaves the new entries unwritten, so a fresh buffer
/// costs no fill pass (and no page faults until the entries are written).
/// (Construction from arguments falls through to std::construct_at.)
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  DefaultInitAllocator() = default;
  template <class U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
};

/// The factor's panel storage: every entry is written by the run that
/// produces the factor, so growing it writes nothing.
using PanelBuffer = std::vector<double, DefaultInitAllocator<double>>;

/// The supernodal Cholesky factor L: the front structure it was computed
/// on, shared with the analysis, and one dense panel per supernode. Panel s
/// starts at values[fronts->value_ptr[s]] and holds η columns over the
/// front rows fronts->rows(s): column k is L(rows[k..m), members[k]),
/// diagonal first, stored contiguously (FrontStructure::panel_column). The
/// panels store the relaxed fronts' explicit zeros too, so values.size()
/// is fronts->panel_entries() ≥ fronts->factor_nnz.
///
/// The factor owns `values`. When the run borrowed a NumericWorkspace, the
/// buffer is that workspace's panel storage: it stays with the factor for
/// the factor's lifetime, and NumericWorkspace::reclaim hands it back when
/// the factor is dropped.
struct CholeskyFactor {
  std::shared_ptr<const FrontStructure> fronts;
  PanelBuffer values;

  /// Order n of the factored matrix.
  Index size() const { return static_cast<Index>(fronts->member_cols.size()); }
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

/// One lane's scratch for front eliminations. Obtain it from
/// FrontalEngine::acquire_workspace() and give it back with
/// release_workspace(); a workspace may serve any number of sequential
/// process_front calls but never two concurrent ones. Between calls that
/// returned normally front_pos is all -1, so the lane can outlive the
/// engine: it is kept in a NumericWorkspace and serves the next run, whose
/// engine re-fits front_pos when the order n changed. A process_front that
/// throws leaves front_pos dirty, and its lane is discarded.
class FrontWorkspace {
 public:
  FrontWorkspace() = default;

 private:
  friend class FrontalEngine;
  std::vector<Index> front_pos;  ///< global row → front row, -1 outside
  /// Dense front, column-major, uninitialized beyond the lower triangle
  /// process_front zeroes (nothing reads the upper one). It only grows, so
  /// a retained lane holds the largest front it ever ran.
  std::unique_ptr<double[]> front;
  std::size_t front_capacity = 0;  ///< entries allocated in `front`
};

/// The numeric storage that outlives one factorization run: the factor
/// panel buffer and the lanes' front workspaces. An engine borrows it for
/// one run; the owner (a Solver, for its whole lifetime) keeps it between
/// runs, so the next run of the same structure allocates and faults in no
/// panel or front memory.
///
/// Ownership over time:
///   * the panel buffer moves into the engine's factor when a run starts
///     and leaves with the factor a successful run returns; reclaim() takes
///     it back when that factor is dropped. A run that throws or stalls
///     gives it back when its engine is destroyed.
///   * a lane is checked out for the run and checked back in after it,
///     unless a process_front on it threw.
/// Panels are never cleared, fresh or reused: a complete run writes every
/// panel entry.
/// The storage keeps the largest size it has served (it never shrinks).
/// One run at a time: an engine's checkouts are not synchronized.
class NumericWorkspace {
 public:
  /// Takes back the panel buffer of a factor that is being dropped.
  void reclaim(CholeskyFactor factor) { panels_ = std::move(factor.values); }

 private:
  friend class FrontalEngine;
  PanelBuffer panels_;
  std::vector<FrontWorkspace> lanes_;
};

/// Estimated dense-elimination flops per supernode, from the front sizes
/// alone: Σ_{k<η} (m − k)², at least 1 — the duration and priority proxy
/// the schedulers use.
std::vector<double> estimated_front_flops(const FrontStructure& fronts);

/// The reentrant numeric core of the multifrontal factorization: one
/// instance per factorization run, shared by every worker.
///
/// Thread-safety contract: process_front(s) may run concurrently with
/// process_front(t) for s ≠ t, provided each call owns its workspace and
/// every child of s completed (with a happens-before edge) before s
/// starts — exactly what the serial driver and the executor's precedence
/// guarantee. Contribution-block slots are written once by the owning
/// supernode and consumed once by its parent; factor panels are disjoint
/// per supernode; flop and live-entry counters are atomic.
class FrontalEngine {
 public:
  /// Validates that `assembly` matches `matrix` and carries its front
  /// structure (build_assembly_tree output; amalgamate() output is rejected
  /// with treemem::Error). `kernel` configures the dense front kernel.
  /// The run borrows `storage`, which must outlive the engine; nullptr
  /// gives the engine a fresh workspace of its own.
  FrontalEngine(const SymmetricMatrix& matrix, const AssemblyTree& assembly,
                const KernelConfig& kernel = {},
                NumericWorkspace* storage = nullptr);
  /// Gives the panel buffer back to the storage unless take_factor() moved
  /// it into a factor.
  ~FrontalEngine();
  FrontalEngine(const FrontalEngine&) = delete;
  FrontalEngine& operator=(const FrontalEngine&) = delete;

  /// A lane for process_front: one the storage retained, re-fitted to this
  /// matrix's order, or a fresh one. Not thread-safe: drivers check lanes
  /// out and in from one thread, outside the concurrent fronts.
  FrontWorkspace acquire_workspace();
  /// Returns a lane to the storage for later runs. Only for a lane whose
  /// process_front calls all returned normally.
  void release_workspace(FrontWorkspace ws);

  /// Executes supernode s end to end: allocate the front, assemble the
  /// original entries of the member columns, extend-add (and release) the
  /// children's contribution blocks, dense partial Cholesky of the leading
  /// η pivots, copy the factor panel out and store the contribution block.
  /// Throws treemem::Error if a pivot is not positive (matrix not SPD) or
  /// a matrix entry lies outside the front of its column.
  void process_front(NodeId s, FrontWorkspace& ws);

  /// treemem::estimated_front_flops of this engine's front structure.
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
  /// moves it out, panel buffer included, and leaves the engine empty.
  const CholeskyFactor& factor() const { return factor_; }
  CholeskyFactor take_factor() { return std::exchange(factor_, {}); }

 private:
  const SymmetricMatrix* matrix_;
  const AssemblyTree* assembly_;
  const FrontStructure* fronts_;  ///< assembly_->fronts, read only
  NumericWorkspace own_storage_;  ///< used when no storage was lent
  NumericWorkspace* storage_;     ///< the lent storage or own_storage_
  std::unique_ptr<const FrontKernel> kernel_;
  CholeskyFactor factor_;
  /// Live contribution block per completed supernode: dense, column-major
  /// over fronts_->update_rows(s) (full-square storage, the paper's
  /// accounting convention; only the lower triangle is written or read).
  std::vector<std::unique_ptr<double[]>> blocks_;
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
  /// Intra-front lease tallies of the run's kernel (a serial run still
  /// leases pool workers for its large trailing updates).
  KernelLeaseStats lease_stats;
};

/// Factors `matrix` (already permuted!) with the multifrontal method,
/// serially along the given traversal.
///
/// `assembly` must come from build_assembly_tree on matrix.pattern();
/// `bottom_up_order` is an in-tree traversal of assembly.tree (children
/// before parents) — e.g. reverse_traversal(minmem_optimal(tree).order).
/// Throws if the order is invalid or the matrix does not match the tree.
/// `kernel` configures the dense front kernel. The run borrows `storage`
/// (nullptr = a fresh workspace for this run only). For the threaded
/// counterpart see factor_parallel in multifrontal/numeric_parallel.hpp.
MultifrontalResult multifrontal_cholesky(const SymmetricMatrix& matrix,
                                         const AssemblyTree& assembly,
                                         const Traversal& bottom_up_order,
                                         const KernelConfig& kernel = {},
                                         NumericWorkspace* storage = nullptr);

/// Frobenius norm of A − L·Lᵀ divided by the norm of A — the correctness
/// metric for factorization tests.
double relative_residual(const SymmetricMatrix& matrix,
                         const CholeskyFactor& factor);

/// ‖A·x − b‖₂ / ‖b‖₂ — the correctness metric for solves (shared by the
/// CLI, the examples and the facade tests).
double relative_residual(const SymmetricMatrix& matrix,
                         const std::vector<double>& x,
                         const std::vector<double>& b);

/// Solves A x = b via the factor: a forward sweep over the panels from the
/// leaves up (L y = b), then a backward sweep from the root down (Lᵀ x =
/// y). Large fronts gather their rows of the right-hand side into a dense
/// vector and run the panel's columns on it; small ones sweep the indexed
/// rows in place (multifrontal/supernodal_solve.cpp).
std::vector<double> solve_with_factor(const CholeskyFactor& factor,
                                      std::vector<double> rhs);

/// The same for `nrhs` right-hand sides at once, in place: column c is
/// columns[c·n, (c+1)·n). Each panel is swept once for all of them, and
/// every column gets the arithmetic of solve_with_factor, bit for bit.
void solve_with_factor(const CholeskyFactor& factor, std::span<double> columns,
                       std::size_t nrhs);

}  // namespace treemem
