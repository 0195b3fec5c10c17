// treemem::Solver — the phased facade over the whole library: the
// analyze / plan / factorize / solve pipeline of a production sparse
// direct solver, with the paper's traversal planning as the plan phase.
//
// Before this facade, running the system end to end meant hand-stitching
// five modules (order/ → symbolic/ → core/planner → multifrontal/numeric*
// → solve_with_factor) and threading configuration through three disjoint
// channels. The facade owns that choreography and exposes the standard
// production split:
//
//   Solver solver;
//   solver.analyze(a.pattern());   // ordering, amalgamation, symbolic
//   solver.plan();                 // traversal policy + memory budget
//   solver.factorize(a);           // numeric Cholesky, serial or threaded
//   std::vector<double> x = solver.solve(b);
//
// The phases form an explicit state machine: each call requires its
// predecessor (a clean treemem::Error otherwise), analyze() invalidates
// any previous plan and factor, plan() invalidates the factor, and
// factorize()/solve() may be repeated at will. factorize() derives its
// engine from the plan and the worker count (threaded for an in-core plan
// with more than one worker, serial otherwise, spilling for an
// out-of-core plan); a parallel schedule that stalls under the budget
// falls back to the serial engine and says so in
// FactorizeStats::stall_fallback. The point of the split is
// amortization: the expensive symbolic phase (ordering, elimination tree,
// amalgamation, traversal planning) is computed once and reused across
// many numeric factorizations of matrices sharing the pattern — the
// analyze/factorize structure production codes (and the paper's
// experiments) presuppose. Repeat factorizations are bit-identical to a
// fresh end-to-end run: the engine's factor is schedule-exact, so cached
// symbolic state cannot change a single bit of the numbers.
//
// The analyze and plan products are *immutable once built* and live
// behind shared_ptr<const> handles (SolverSymbolic): a planned solver can
// export its symbolic state and any number of other Solver instances —
// other tenants of a service — can adopt() it, sharing one copy of the
// ordering, assembly tree and traversal across threads with no
// duplication and no synchronization. That handle is what the
// service layer (solver/symbolic_cache.hpp, solver/solver_pool.hpp)
// caches per sparsity pattern. solve() is const AND thread-safe: many
// threads may solve against one factorized Solver concurrently (the
// cumulative solve counters are atomic).
//
// Configuration flows through one aggregate (SolverOptions, one member
// per phase); the environment does not reach it (TREEMEM_THREADS and
// TREEMEM_AFFINITY size and pin the process-wide worker pool). The
// low-level entry points the facade wraps stay exported via treemem.hpp
// for the paper-reproduction benches.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/minmem.hpp"
#include "core/traversal.hpp"
#include "dense/front_kernel.hpp"
#include "multifrontal/numeric.hpp"
#include "order/ordering.hpp"
#include "parallel/schedule_core.hpp"
#include "sparse/pattern.hpp"
#include "symbolic/assembly_tree.hpp"

namespace treemem {

/// Traversal policy of plan(). kAuto follows the decision procedure the
/// paper's experiments justify (core/planner.hpp): best postorder when it
/// fits the budget, MinMem when only the optimum fits, MinIO out-of-core
/// below that.
enum class TraversalPolicy {
  kAuto,
  kPostorder,
  kLiu,
  kMinMem,
};

const char* to_string(TraversalPolicy policy);

struct AnalyzeOptions {
  /// Fill-reducing ordering (order/ordering.hpp). kNatural accepts the
  /// pattern as given, for matrices an external ordering already permuted.
  OrderingChoice ordering = OrderingChoice::kMinDegree;
  /// Relaxed amalgamations per supernode (assembly_tree.hpp; the paper
  /// uses 1, 2, 4 and 16). 0 keeps perfect supernodes: model == machine.
  Index relax = 1;
  /// Perform perfect (fundamental supernode) amalgamation first.
  bool perfect = true;
};

struct PlanOptions {
  TraversalPolicy policy = TraversalPolicy::kAuto;
  /// Budget on modeled live entries (Eq. 1 accounting over the assembly
  /// tree); kInfiniteWeight plans unconstrained. Below the chosen
  /// traversal's in-core peak the plan is a MinIO eviction schedule
  /// (out-of-core execution); below max MemReq no schedule exists and
  /// plan() throws.
  Weight memory_budget = kInfiniteWeight;
};

/// The engine follows from the plan and the worker count: an in-core plan
/// with more than one worker runs the threaded engine, any other in-core
/// plan the serial engine, and an out-of-core plan the serial spilling
/// engine.
struct FactorizeOptions {
  /// Worker threads; 0 defers to default_thread_count() (which honors
  /// TREEMEM_THREADS). analyze() runs nested dissection at this width too,
  /// reading it from the Solver's own options; the permutation does not
  /// depend on it.
  int workers = 0;
  /// Dense front kernel settings (the block_size default is the
  /// measured-fastest 16; see dense/front_kernel.hpp for the bench data).
  KernelConfig kernel;
  /// Ready-task priority of the parallel engine's scheduler.
  ParallelPriority priority = ParallelPriority::kCriticalPath;
  /// How the parallel engine admits fronts against the plan's budget. The
  /// planned traversal serves as the serial witness, so kLookahead can
  /// never stall (the plan guarantees the witness fits the budget) and the
  /// factor stays bit-identical across policies.
  AdmissionPolicy admission = AdmissionPolicy::kGreedy;
  /// Elastic crewing of the parallel engine (see
  /// ParallelFactorOptions::lease_idle_workers): tree-level workers idle
  /// at the schedule frontier return to the persistent pool, where a
  /// large root front's trailing-update lease absorbs them. The factor is
  /// bit-identical either way; off holds the full crew for the whole run
  /// (the root-front scenario's comparison configuration).
  bool lease_idle_workers = true;
};

/// The one configuration aggregate: one member per phase. Construct a
/// Solver from it (or pass per-phase options to each call) instead of
/// threading KernelConfig / ParallelFactorOptions / env lookups by hand.
struct SolverOptions {
  AnalyzeOptions analyze;
  PlanOptions plan;
  FactorizeOptions factorize;
};

/// What analyze() reports. Built once per analysis and stored with it
/// (SolverAnalysis::stats), so every solver sharing the analysis reports
/// the same section.
struct AnalyzeStats {
  Index n = 0;                       ///< matrix dimension
  std::int64_t pattern_nnz = 0;      ///< nnz of the (symmetric) pattern
  std::int64_t factor_nnz = 0;       ///< nnz(L) incl. diagonal — the fill
  NodeId tree_nodes = 0;             ///< assembly-tree supernodes
  std::string ordering;              ///< ordering actually applied
  double analyze_seconds = 0.0;
};

/// What plan() reports. Built once per plan and stored with it
/// (SolverPlan::stats).
struct PlanStats {
  std::string strategy;              ///< e.g. "postorder/in-core"
  /// The budget the plan was made for and factorize() runs under.
  Weight memory_budget = kInfiniteWeight;
  Weight planned_peak_entries = 0;   ///< modeled Eq. 1 peak of the plan
  Weight in_core_optimum = 0;        ///< MinMem optimum (workspace floor)
  Weight best_postorder_peak = 0;    ///< what a postorder-only code needs
  Weight planned_io_volume = 0;      ///< entries written out-of-core (0 in-core)
  double plan_seconds = 0.0;
};

/// What the latest factorize() reports. analyze() and adopt() clear it;
/// plan() keeps it.
struct FactorizeStats {
  std::string engine;  ///< "serial" | "parallel" | "out-of-core"
  std::string admission;             ///< admission policy of parallel runs
  int workers = 0;
  long long flops = 0;
  Weight measured_peak_entries = 0;  ///< engine-metered live entries
  /// Modeled Eq. 1 peak governing the run: the executor's accounting on
  /// parallel runs, the planned traversal's peak on serial runs. Always
  /// >= measured_peak_entries and <= memory_budget.
  Weight modeled_peak_entries = 0;
  double factorize_seconds = 0.0;
  /// Parallel runs only: sum of per-task busy seconds / makespan.
  double parallel_speedup = 0.0;
  /// Parallel runs only: tasks the executor scheduled (whole-subtree
  /// tasks plus one-front tasks; see multifrontal/numeric_parallel.hpp).
  NodeId parallel_tasks = 0;
  /// True when the parallel schedule stalled under the budget (greedy
  /// admission can strand resident files; lookahead cannot) and the run
  /// fell back to the serial engine along the planned traversal, which the
  /// plan guarantees feasible. The factor is the same bit for bit; this
  /// flag, with engine "serial", is how the stall is reported.
  bool stall_fallback = false;
};

/// Everything the run reported: modeled vs measured memory, flops, fill,
/// and per-phase wall time. A view assembled by Solver::stats() from one
/// source per section — the analysis, the plan, the latest factorization —
/// plus the totals below, which count since analyze() and survive adopt().
struct SolverStats : AnalyzeStats, PlanStats, FactorizeStats {
  long long factorizations = 0;
  long long rhs_solved = 0;
  double solve_seconds = 0.0;
};

/// Immutable product of analyze(): the ordering, the permuted pattern, the
/// amalgamated assembly tree and the value gather map — everything the
/// numeric phases read — plus the reporting fields describing how (and
/// how fast) it was built. Built once, then only ever read: safe to share
/// across Solver instances and threads via shared_ptr<const>.
struct SolverAnalysis {
  AnalyzeOptions options;          ///< what built it
  SparsePattern pattern;           ///< analyzed pattern, original ordering
  std::vector<Index> perm;         ///< elimination order (original indices)
  SparsePattern permuted_pattern;  ///< P A Pᵀ — what assembly was built on
  AssemblyTree assembly;
  /// Gather map for repeated factorizations: permuted value at offset o is
  /// the original value at permuted_value_map[o], so factorize() permutes
  /// values with one linear pass instead of a symbolic permutation per
  /// value set.
  std::vector<std::size_t> permuted_value_map;
  AnalyzeStats stats;
};

/// Sets analysis.permuted_pattern (P A Pᵀ) and analysis.permuted_value_map
/// from analysis.pattern and analysis.perm, which must be a permutation of
/// its columns. analyze() and the state-file loader share it, so a loaded
/// state never carries a stored map that could point outside the values.
void permute_analysis(SolverAnalysis& analysis);

/// Immutable product of plan(): the bottom-up traversal (and, for
/// out-of-core plans, the eviction schedule) plus the reporting fields.
/// Same sharing contract as SolverAnalysis.
struct SolverPlan {
  PlanOptions options;             ///< what built it
  Traversal bottom_up_order;
  IoSchedule io_schedule;          ///< out-tree order + writes (ooc plans)
  bool out_of_core = false;
  PlanStats stats;                 ///< incl. the budget factorize() runs under
};

/// The shareable symbolic state of a planned Solver: one analysis handle +
/// one plan handle. This is the unit the SymbolicCache stores per sparsity
/// pattern and any number of tenant Solvers adopt().
struct SolverSymbolic {
  std::shared_ptr<const SolverAnalysis> analysis;
  std::shared_ptr<const SolverPlan> plan;

  explicit operator bool() const { return analysis != nullptr && plan != nullptr; }
};

class Solver {
 public:
  /// Phase defaults = `options`; per-phase overloads override per call.
  Solver() = default;
  explicit Solver(SolverOptions options) : options_(std::move(options)) {}

  // -- Phase 1: symbolic analysis -------------------------------------------
  /// Orders `pattern` (symmetric, full diagonal — apply symmetrize()
  /// first), builds the elimination tree and the amalgamated assembly
  /// tree, and computes the factor's fill. Invalidates any previous plan
  /// and factor. Returns *this for chaining.
  Solver& analyze(const SparsePattern& pattern);
  Solver& analyze(const SparsePattern& pattern, const AnalyzeOptions& options);

  // -- Phase 2: traversal planning ------------------------------------------
  /// Chooses the bottom-up traversal (and, under a tight budget, the MinIO
  /// eviction schedule) for the analyzed tree. Requires analyze();
  /// invalidates any previous factor. Throws when no schedule fits the
  /// budget (below max MemReq).
  Solver& plan();
  Solver& plan(const PlanOptions& options);

  // -- Shared symbolic state (the service layer's handle) -------------------
  /// The immutable analysis+plan backing this solver. Valid after plan().
  /// Adopting solvers alias (not copy) the state.
  SolverSymbolic symbolic() const;
  /// Installs shared symbolic state built by another Solver (typically via
  /// SymbolicCache), jumping straight to the planned phase: factorize()
  /// may be called immediately, and the result is bit-identical to a cold
  /// analyze+plan+factorize run with the same options. Invalidates any
  /// previous factor and its run report; the analyze/plan reports are the
  /// adopted state's own. Unlike analyze(), the totals (factorizations,
  /// rhs_solved, solve_seconds) are kept — a pooled solver keeps its
  /// lifetime totals as it serves different patterns.
  Solver& adopt(SolverSymbolic symbolic);

  // -- Phase 3: numeric factorization ---------------------------------------
  /// Factors `matrix` (same pattern as analyze(); original, unpermuted
  /// ordering — the facade permutes internally). Requires plan(). May be
  /// called any number of times with different value sets; the symbolic
  /// state and the plan are reused, and each run's factor is bit-identical
  /// to a fresh end-to-end run on the same values.
  ///
  /// Failure contract: the previous factor is dropped when the call
  /// starts, so a factorize() that throws (values not SPD, a pattern or
  /// size mismatch, bad options) leaves the solver planned: factorized()
  /// is false and solve() throws "call factorize() first" until a
  /// factorize() succeeds.
  ///
  /// Retained memory: the solver owns one NumericWorkspace for its whole
  /// lifetime (multifrontal/numeric.hpp). The dropped factor's panels and
  /// the engine's front workspaces (one per lane) are kept and reused by
  /// the next run, so a refactorization of the same structure allocates
  /// no panel or front memory and factor().values keeps its address.
  /// analyze(), plan() and adopt() drop the factor but keep the storage,
  /// which stays at the largest size any run needed; between runs the
  /// solver holds one factor's panels, plus the largest front of each
  /// lane and an order-n row map per lane.
  Solver& factorize(const SymmetricMatrix& matrix);
  Solver& factorize(const SymmetricMatrix& matrix,
                    const FactorizeOptions& options);
  /// Convenience for repeated value sets: `values` aligned with the
  /// analyzed pattern's row_idx() (symmetry validated).
  Solver& factorize(std::vector<double> values);
  Solver& factorize(std::vector<double> values,
                    const FactorizeOptions& options);

  // -- Phase 4: triangular solves -------------------------------------------
  /// Solves A x = b in the *original* ordering (permutation applied and
  /// undone internally). Requires factorize(). Thread-safe: concurrent
  /// solves against one factorized Solver are supported (the factor is
  /// read-only and the cumulative counters are atomic).
  std::vector<double> solve(std::vector<double> rhs) const;
  /// Multi-RHS: one forward and one backward sweep over the factor's panels
  /// for all columns together; each column's solution is bit-identical to
  /// a single solve of it. Counts one rhs_solved per column, not per call.
  std::vector<std::vector<double>> solve(
      const std::vector<std::vector<double>>& rhs) const;

  // -- Introspection --------------------------------------------------------
  bool analyzed() const { return phase_ >= Phase::kAnalyzed; }
  bool planned() const { return phase_ >= Phase::kPlanned; }
  bool factorized() const { return phase_ == Phase::kFactorized; }

  /// Snapshot of the run statistics. Returned by value so concurrent
  /// solve() counter updates can stay race-free.
  SolverStats stats() const;
  const SolverOptions& options() const { return options_; }

  /// The fill-reducing permutation (perm[k] = original column eliminated
  /// k-th) and the assembly tree it induced. Valid after analyze().
  const std::vector<Index>& permutation() const;
  const AssemblyTree& assembly() const;

  /// The planned bottom-up traversal (leaves before roots) and, for
  /// out-of-core plans, the eviction schedule. Valid after plan().
  const Traversal& planned_traversal() const;
  const IoSchedule& planned_io_schedule() const;

  /// The factor of P A Pᵀ (permuted ordering). Valid after factorize().
  const CholeskyFactor& factor() const;

 private:
  enum class Phase { kCreated, kAnalyzed, kPlanned, kFactorized };

  void require_phase(Phase at_least, const char* verb,
                     const char* prerequisite) const;
  /// Hands the factor's panels to workspace_ and drops the factor; a
  /// factorized solver becomes planned.
  void drop_factor();
  SymmetricMatrix permute_values(const std::vector<double>& values) const;
  Solver& factorize_permuted(const SymmetricMatrix& permuted,
                             const FactorizeOptions& options);

  /// The totals SolverStats reports: counted since analyze(), which
  /// replaces them with a fresh Totals, and untouched by adopt(). The
  /// solve counters are atomic because solve() is const and may run
  /// concurrently on a shared Solver; copy/move load them so Solver keeps
  /// value semantics (moving a solver mid-solve is already outside the
  /// thread-safety contract).
  struct Totals {
    long long factorizations = 0;
    std::atomic<long long> rhs{0};
    std::atomic<long long> solve_nanos{0};

    Totals() = default;
    Totals(const Totals& other) { *this = other; }
    Totals& operator=(const Totals& other) {
      factorizations = other.factorizations;
      rhs = other.rhs.load();
      solve_nanos = other.solve_nanos.load();
      return *this;
    }
  };

  SolverOptions options_;
  Phase phase_ = Phase::kCreated;

  // The shared immutable phase products (see SolverAnalysis/SolverPlan).
  std::shared_ptr<const SolverAnalysis> analysis_;
  std::shared_ptr<const SolverPlan> plan_;

  // Traversal results depend only on the analyzed tree; memoized so
  // re-planning (the bench's budget sweeps) does not redo the searches.
  // Per-solver (not part of the shared state): only plan() touches them.
  const TraversalResult& cached_postorder() const;
  const TraversalResult& cached_liu() const;
  const MinMemResult& cached_minmem() const;
  mutable std::optional<TraversalResult> postorder_cache_;
  mutable std::optional<TraversalResult> liu_cache_;
  mutable std::optional<MinMemResult> minmem_cache_;

  // The latest factorize() product, owned here alone: nothing else holds
  // a handle to it, and analyze(), plan(), adopt() and the next
  // factorize() drop it, handing its panels to workspace_.
  std::optional<CholeskyFactor> factor_;
  // Panel and front storage every engine run borrows (see factorize()).
  NumericWorkspace workspace_;

  FactorizeStats last_run_;
  mutable Totals totals_;
};

}  // namespace treemem
