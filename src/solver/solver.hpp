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
// factorize()/solve() may be repeated at will. The point of the split is
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
// per phase) with every TREEMEM_* environment override applied by
// solver_options_from_env() through the strictly-parsed support/env.hpp
// layer. The low-level entry points the facade wraps stay exported via
// treemem.hpp for the paper-reproduction benches.
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
#include "parallel/schedule_core.hpp"
#include "sparse/pattern.hpp"
#include "symbolic/assembly_tree.hpp"

namespace treemem {

/// Fill-reducing ordering applied in analyze(). kNatural accepts the
/// pattern as-is — the choice for matrices permuted by an external
/// ordering (e.g. the perf corpus instances).
enum class OrderingChoice {
  kNatural,
  kRcm,
  kMinDegree,
  kNestedDissection,
};

const char* to_string(OrderingChoice choice);

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

/// Numeric engine of factorize(). kAuto picks the threaded engine when the
/// plan is in-core and more than one worker is requested, the serial
/// engine otherwise (out-of-core plans always run serially).
enum class FactorizeEngine {
  kAuto,
  kSerial,
  kParallel,
};

const char* to_string(FactorizeEngine engine);

struct AnalyzeOptions {
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
  /// tree); kInfiniteWeight plans unconstrained.
  Weight memory_budget = kInfiniteWeight;
  /// When the budget is below the chosen traversal's in-core peak, fall
  /// back to a MinIO eviction schedule (out-of-core execution) instead of
  /// failing. Below max MemReq no schedule exists and plan() throws
  /// either way.
  bool allow_out_of_core = true;
  /// Admission policy assumed by the traversal × schedule co-search below
  /// (and the natural companion of FactorizeOptions::admission — the env
  /// layer sets both from TREEMEM_ADMISSION).
  AdmissionPolicy admission = AdmissionPolicy::kGreedy;
  /// > 0 enables the traversal × schedule co-search: every budget-feasible
  /// traversal candidate (postorder, Liu, MinMem — the searches plan()
  /// already memoizes) is simulated as the serial witness of a
  /// `co_search_workers`-worker schedule under `admission`, and the plan
  /// adopts the traversal minimizing the simulated *parallel* peak
  /// (tie-break: makespan, then candidate order) — the paper's MinMem
  /// machinery steering the parallel regime rather than the serial one.
  /// 0 (default) keeps the serial decision procedure untouched.
  int co_search_workers = 0;
};

struct FactorizeOptions {
  FactorizeEngine engine = FactorizeEngine::kAuto;
  /// Worker threads of the parallel engine; 0 defers to
  /// default_thread_count() (which honors TREEMEM_THREADS).
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
  /// A tight budget can stall the parallel engine's greedy schedule
  /// (started subtrees strand resident files; the lookahead policy is
  /// stall-free by construction). When true, such a stall falls back to
  /// the serial engine along the planned traversal — which the plan
  /// guarantees feasible — and produces the identical factor (bit-exact
  /// across engines). When false, a stall throws, so benches can observe
  /// and report it.
  bool allow_serial_fallback = true;
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

/// Thrown by factorize() when the parallel engine's greedy schedule
/// stalls under the memory budget and allow_serial_fallback is off —
/// typed so benches can chart the stall without string-matching the
/// message.
class SolverStallError : public Error {
 public:
  using Error::Error;
};

/// `base` with every TREEMEM_* override applied, through the strict
/// support/env.hpp parsers (malformed values throw):
///   TREEMEM_ORDERING  = natural | rcm | mindeg | nd
///   TREEMEM_TRAVERSAL = auto | postorder | liu | minmem
///   TREEMEM_BUDGET    = <positive entries>        (plan memory budget)
///   TREEMEM_WORKERS   = <positive thread count>   (tree-level workers)
///   TREEMEM_ADMISSION = greedy | lookahead
///                       (applied to plan *and* factorize admission)
/// (TREEMEM_THREADS keeps steering intra-front workers and the
/// workers == 0 default — now resolved exactly once, when the process-wide
/// WorkerPool is constructed; TREEMEM_AFFINITY=1 pins pool workers to
/// cores, read once at pool construction too.)
SolverOptions solver_options_from_env(SolverOptions base = {});

/// Everything the run reported: modeled vs measured memory, flops, fill,
/// and per-phase wall time. Cumulative counters (factorizations, solves)
/// reset on analyze(); per-run fields describe the latest call.
struct SolverStats {
  // analyze
  Index n = 0;                       ///< matrix dimension
  std::int64_t pattern_nnz = 0;      ///< nnz of the (symmetric) pattern
  std::int64_t factor_nnz = 0;       ///< nnz(L) incl. diagonal — the fill
  NodeId tree_nodes = 0;             ///< assembly-tree supernodes
  std::string ordering;              ///< ordering actually applied
  double analyze_seconds = 0.0;

  // plan
  std::string strategy;              ///< e.g. "postorder/in-core"
  Weight memory_budget = kInfiniteWeight;
  Weight planned_peak_entries = 0;   ///< modeled Eq. 1 peak of the plan
  Weight in_core_optimum = 0;        ///< MinMem optimum (workspace floor)
  Weight best_postorder_peak = 0;    ///< what a postorder-only code needs
  Weight planned_io_volume = 0;      ///< entries written out-of-core (0 in-core)
  /// Simulated parallel peak of the co-searched schedule (0 when the
  /// co-search was off or found no feasible schedule).
  Weight planned_parallel_peak = 0;
  double plan_seconds = 0.0;

  // factorize (latest run; factorizations counts since analyze)
  std::string engine;                ///< "serial" | "parallel" | "out-of-core"
  std::string admission;             ///< admission policy of parallel runs
  int workers = 0;
  long long flops = 0;
  Weight measured_peak_entries = 0;  ///< engine-metered live entries
  /// Modeled Eq. 1 peak governing the run: the executor's accounting on
  /// parallel runs, the planned traversal's peak on serial runs. Always
  /// >= measured_peak_entries and <= memory_budget.
  Weight modeled_peak_entries = 0;
  double factorize_seconds = 0.0;
  int factorizations = 0;
  /// Parallel runs only: sum of per-task busy seconds / makespan.
  double parallel_speedup = 0.0;
  /// Parallel runs only: tasks the executor scheduled (whole-subtree
  /// tasks plus one-front tasks; see multifrontal/numeric_parallel.hpp).
  NodeId parallel_tasks = 0;
  /// True when a stalled parallel schedule fell back to the serial engine.
  bool stall_fallback = false;
  /// Parallel-engine runs: trailing-update panels that cleared the volume
  /// gate and leased pool workers / found none idle and ran inline. Makes
  /// the volume gate's cost observable — a high denial rate means the tree
  /// level never leaves workers idle and intra-front parallelism is not
  /// paying. Cumulative since analyze(), like factorizations.
  long long leases_granted = 0;
  long long lease_denied = 0;

  // solve (cumulative since analyze)
  int rhs_solved = 0;
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

  // Reporting snapshot (the analyze-phase SolverStats fields).
  std::int64_t factor_nnz = 0;
  std::string ordering_name;
  double analyze_seconds = 0.0;
};

/// Immutable product of plan(): the bottom-up traversal (and, for
/// out-of-core plans, the eviction schedule) plus the reporting fields.
/// Same sharing contract as SolverAnalysis.
struct SolverPlan {
  PlanOptions options;             ///< what built it
  Traversal bottom_up_order;
  IoSchedule io_schedule;          ///< out-tree order + writes (ooc plans)
  bool out_of_core = false;
  /// The budget factorize() runs under — a plan product, kept separate
  /// from the reporting-only SolverStats copy.
  Weight budget = kInfiniteWeight;

  // Reporting snapshot (the plan-phase SolverStats fields).
  std::string strategy;
  Weight planned_peak_entries = 0;
  Weight in_core_optimum = 0;
  Weight best_postorder_peak = 0;
  Weight planned_io_volume = 0;
  Weight planned_parallel_peak = 0;
  double plan_seconds = 0.0;
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
  /// The default constructor uses compiled-in defaults only — call
  /// Solver(solver_options_from_env()) to honor the TREEMEM_* overrides.
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
  /// budget (below max MemReq, or out-of-core disallowed).
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
  /// previous factor and resets the analyze/plan reporting fields to the
  /// adopted snapshots. Unlike analyze(), the cumulative service counters
  /// (factorizations, rhs_solved, solve_seconds) are preserved — a pooled
  /// solver keeps its lifetime totals as it serves different patterns.
  Solver& adopt(SolverSymbolic symbolic);

  // -- Phase 3: numeric factorization ---------------------------------------
  /// Factors `matrix` (same pattern as analyze(); original, unpermuted
  /// ordering — the facade permutes internally). Requires plan(). May be
  /// called any number of times with different value sets; the symbolic
  /// state and the plan are reused, and each run's factor is bit-identical
  /// to a fresh end-to-end run on the same values.
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
  /// Multi-RHS: one forward/backward sweep per column, columns independent.
  /// Counts one rhs_solved per column, not per call.
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

  // -- Shared numeric state (the factor cache's handle) ---------------------
  /// The immutable factor backing this solver, shareable the same way the
  /// symbolic state is: the NumericCache stores this handle per (pattern,
  /// values) key and other solvers adopt_factor() it. Valid after
  /// factorize().
  std::shared_ptr<const CholeskyFactor> shared_factor() const;
  /// Installs a factor computed elsewhere for this solver's symbolic
  /// state, jumping straight to the factorized phase — solve() may be
  /// called immediately, skipping factorize() entirely (the numeric-cache
  /// fast path). Requires plan() (or adopt()); the factor must belong to
  /// the adopted pattern — the cache guarantees that by keying on the
  /// (pattern, values) fingerprints and verifying the defining values.
  /// Reports engine "cached" and does not count a factorization.
  Solver& adopt_factor(std::shared_ptr<const CholeskyFactor> factor);

 private:
  enum class Phase { kCreated, kAnalyzed, kPlanned, kFactorized };

  void require_phase(Phase at_least, const char* verb,
                     const char* prerequisite) const;
  SymmetricMatrix permute_values(const std::vector<double>& values) const;
  Solver& factorize_permuted(const SymmetricMatrix& permuted,
                             const FactorizeOptions& options);

  /// Cumulative solve accounting. Atomic because solve() is const and may
  /// run concurrently on a shared Solver; copy/move load the counters so
  /// Solver keeps value semantics (moving a solver mid-solve is already
  /// outside the thread-safety contract).
  struct SolveCounters {
    std::atomic<int> rhs{0};
    std::atomic<long long> nanos{0};

    SolveCounters() = default;
    SolveCounters(const SolveCounters& other)
        : rhs(other.rhs.load()), nanos(other.nanos.load()) {}
    SolveCounters(SolveCounters&& other) noexcept
        : rhs(other.rhs.load()), nanos(other.nanos.load()) {}
    SolveCounters& operator=(const SolveCounters& other) {
      rhs = other.rhs.load();
      nanos = other.nanos.load();
      return *this;
    }
    SolveCounters& operator=(SolveCounters&& other) noexcept {
      rhs = other.rhs.load();
      nanos = other.nanos.load();
      return *this;
    }
    void reset() {
      rhs = 0;
      nanos = 0;
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

  // factorize() products. Behind shared_ptr<const> so the numeric-factor
  // cache (solver/numeric_cache.hpp) can keep a factor alive after this
  // solver moves on — same sharing contract as the symbolic state.
  std::shared_ptr<const CholeskyFactor> factor_;

  SolverStats stats_;
  mutable SolveCounters solve_counters_;
};

}  // namespace treemem
