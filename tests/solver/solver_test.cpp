// The facade suite (solver/solver.hpp): the analyze → plan → factorize →
// solve state machine, symbolic-state reuse across repeated numeric
// factorizations, and the one-env-layer configuration path.
//
// Pinned properties:
//   * reuse is exact: a Solver analyzed once and factorized with a second
//     value set produces a factor bit-identical to a fresh end-to-end run
//     on that value set, across a 24-instance corpus (3 seeds × 4 pattern
//     families × 2 orderings) at w ∈ {1, 4} — the analyze/factorize
//     amortization production solvers rely on;
//   * SolverStats memory ledger: measured ≤ modeled ≤ budget on every
//     parallel run, and the facade's factor equals the hand-stitched
//     pipeline (order/ → symbolic/ → multifrontal/) bit for bit;
//   * wrong-phase-order calls throw clean errors naming the missing phase;
//   * multi-RHS solve equals per-column solve_with_factor on the permuted
//     system exactly, and solutions satisfy A x ≈ b in the original
//     ordering;
//   * out-of-core plans (budget below the in-core optimum) execute through
//     the facade and still reproduce the in-core factor bit for bit;
//   * the engine follows from the worker count and the plan, and a greedy
//     stall falls back to the serial engine, reported in stall_fallback;
//   * the numeric storage persists: on every engine a refactorization
//     writes into the previous factor's panel buffer, never leaks its
//     values (bit-identical to a fresh Solver, also after an adopt() of a
//     pattern of another order and back), and a throwing factorize()
//     leaves the solver planned with no factor;
//   * tenants sharing one cached analysis refactor concurrently, each
//     bit-identical to a solo serial run (runs under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "core/postorder.hpp"
#include "multifrontal/numeric.hpp"
#include "parallel/worker_pool.hpp"
#include "solver/solver.hpp"
#include "solver/symbolic_cache.hpp"
#include "sparse/generators.hpp"
#include "support/prng.hpp"
#include "symbolic/assembly_tree.hpp"
#include "order/ordering.hpp"
#include "test_util.hpp"

namespace treemem {
namespace {

/// Pattern families chosen for their assembly-tree shapes (same recipe as
/// the numeric_parallel suite): narrow banded → chain-like, arrowhead →
/// star-like, random → irregular, grid → realistic FEM-ish.
std::vector<SparsePattern> pattern_family(std::uint64_t seed) {
  Prng prng(seed * 9176);
  return {
      symmetrize(gen::banded(60, 2, 1.0, prng)),
      symmetrize(gen::arrowhead(48, 6)),
      symmetrize(gen::random_symmetric(64, 3.0, prng)),
      symmetrize(gen::grid2d(8, 8)),
  };
}

AnalyzeOptions analyze_options(OrderingChoice ordering, Index relax) {
  AnalyzeOptions options;
  options.ordering = ordering;
  options.relax = relax;
  return options;
}

FactorizeOptions workers_options(int workers) {
  FactorizeOptions options;
  options.workers = workers;
  return options;
}

// ---------------------------------------------------------------------------
// Reuse: analyze once, factorize many — bit-identical to fresh runs
// ---------------------------------------------------------------------------

class SolverReuseSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverReuseSweep, SecondFactorizationMatchesFreshRunBitForBit) {
  // 3 seeds × 4 patterns × 2 orderings = 24 instances ≥ the 20 the
  // acceptance criteria demand, each exercised at w ∈ {1, 4}.
  const std::uint64_t seed = GetParam();
  const Index relax_by_seed[] = {0, 1, 4};
  const Index relax = relax_by_seed[seed % 3];
  for (const SparsePattern& pattern : pattern_family(seed)) {
    const SymmetricMatrix first_values = make_spd_matrix(pattern, seed);
    const SymmetricMatrix second_values =
        make_spd_matrix(pattern, seed + 1000);
    for (const OrderingChoice ordering :
         {OrderingChoice::kMinDegree, OrderingChoice::kNestedDissection}) {
      SCOPED_TRACE(std::string(to_string(ordering)) + " seed " +
                   std::to_string(seed));
      for (const int workers : {1, 4}) {
        Solver reused;
        reused.analyze(pattern, analyze_options(ordering, relax)).plan();
        reused.factorize(first_values, workers_options(workers));
        const PanelBuffer first_factor = reused.factor().values;
        ASSERT_EQ(reused.stats().factorizations, 1);

        // Second value set on the cached symbolic state...
        reused.factorize(second_values, workers_options(workers));
        const PanelBuffer second_factor = reused.factor().values;
        ASSERT_EQ(reused.stats().factorizations, 2);

        // ...must equal a fresh end-to-end run bit for bit.
        Solver fresh;
        fresh.analyze(pattern, analyze_options(ordering, relax)).plan();
        fresh.factorize(second_values, workers_options(workers));
        EXPECT_EQ(second_factor, fresh.factor().values) << "w=" << workers;

        // And going back to the first value set reproduces the first run.
        reused.factorize(first_values, workers_options(workers));
        EXPECT_EQ(reused.factor().values, first_factor) << "w=" << workers;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverReuseSweep,
                         ::testing::Range<std::uint64_t>(1, 4));

// ---------------------------------------------------------------------------
// Memory ledger + parity with the hand-stitched pipeline
// ---------------------------------------------------------------------------

TEST(SolverStatsLedger, MeasuredWithinModeledWithinBudgetOnParallelRuns) {
  for (const std::uint64_t seed : {2ULL, 9ULL}) {
    for (const SparsePattern& pattern : pattern_family(seed)) {
      const SymmetricMatrix matrix = make_spd_matrix(pattern, seed);
      Solver solver;
      solver.analyze(pattern,
                     analyze_options(OrderingChoice::kMinDegree, 1));
      // A budget no reachable occupancy can exceed (all files resident
      // plus a full transient per worker): admission never blocks.
      const Tree& tree = solver.assembly().tree;
      Weight all_files = 0;
      for (NodeId i = 0; i < tree.size(); ++i) {
        all_files += tree.file_size(i);
      }
      PlanOptions plan;
      plan.memory_budget = all_files + 4 * tree.max_mem_req();
      solver.plan(plan);

      solver.factorize(matrix, workers_options(4));
      const SolverStats& stats = solver.stats();
      EXPECT_EQ(stats.engine, "parallel");
      EXPECT_FALSE(stats.stall_fallback);
      EXPECT_LE(stats.measured_peak_entries, stats.modeled_peak_entries);
      EXPECT_LE(stats.modeled_peak_entries, stats.memory_budget);
      EXPECT_GT(stats.flops, 0);
    }
  }
}

TEST(SolverParity, FacadeEqualsHandStitchedPipelineBitForBit) {
  const SparsePattern pattern = symmetrize(gen::grid2d(9, 9));
  const SymmetricMatrix matrix = make_spd_matrix(pattern, 77);

  // The old five-module stitching the facade replaced.
  const std::vector<Index> perm = min_degree_order(pattern);
  const SymmetricMatrix permuted = matrix.permuted(perm);
  AssemblyTreeOptions tree_options;
  tree_options.relax = 2;
  const AssemblyTree assembly =
      build_assembly_tree(permuted.pattern(), tree_options);
  const MultifrontalResult stitched = multifrontal_cholesky(
      permuted, assembly, reverse_traversal(best_postorder(assembly.tree).order),
      KernelConfig{});

  Solver solver;
  PlanOptions plan;
  plan.policy = TraversalPolicy::kPostorder;
  solver.analyze(pattern, analyze_options(OrderingChoice::kMinDegree, 2))
      .plan(plan)
      .factorize(matrix, workers_options(1));
  EXPECT_EQ(solver.factor().values, stitched.factor.values);
  EXPECT_EQ(solver.stats().flops, stitched.flops);
  EXPECT_EQ(solver.stats().measured_peak_entries, stitched.peak_live_entries);
  EXPECT_EQ(solver.permutation(), perm);
}

TEST(SolverParity, FactorIsTraversalIndependent) {
  // The engine's factor is schedule-exact, so re-planning with a different
  // traversal must not change a bit — only the memory profile moves.
  const SparsePattern pattern = symmetrize(gen::grid2d(8, 8));
  const SymmetricMatrix matrix = make_spd_matrix(pattern, 5);
  Solver solver;
  solver.analyze(pattern, analyze_options(OrderingChoice::kMinDegree, 0));

  PanelBuffer reference;
  for (const TraversalPolicy policy :
       {TraversalPolicy::kPostorder, TraversalPolicy::kLiu,
        TraversalPolicy::kMinMem}) {
    PlanOptions plan;
    plan.policy = policy;
    solver.plan(plan).factorize(matrix, workers_options(1));
    EXPECT_LE(solver.stats().measured_peak_entries,
              solver.stats().planned_peak_entries)
        << to_string(policy);
    if (reference.empty()) {
      reference = solver.factor().values;
    } else {
      EXPECT_EQ(solver.factor().values, reference) << to_string(policy);
    }
  }
  // MinMem can only improve on the best postorder (paper's Theorem 1 gap).
  EXPECT_LE(solver.stats().in_core_optimum, solver.stats().best_postorder_peak);
}

// ---------------------------------------------------------------------------
// State machine: wrong-phase calls throw clean errors
// ---------------------------------------------------------------------------

TEST(SolverParity, AnalysisDoesNotDependOnTheWorkerCount) {
  // analyze() runs nested dissection at the factorization's worker count;
  // the permutation and everything built from it must not notice.
  const SparsePattern pattern = gen::grid2d(160, 160);
  const AnalyzeOptions options =
      analyze_options(OrderingChoice::kNestedDissection, 4);
  SolverOptions serial_options;
  serial_options.factorize = workers_options(1);
  SolverOptions wide_options;
  wide_options.factorize = workers_options(4);
  Solver serial(serial_options);
  Solver wide(wide_options);
  serial.analyze(pattern, options);
  wide.analyze(pattern, options);
  EXPECT_EQ(wide.permutation(), serial.permutation());
  EXPECT_EQ(*wide.assembly().fronts, *serial.assembly().fronts);
}

TEST(SolverStateMachine, WrongPhaseOrderThrowsCleanErrors) {
  const SparsePattern pattern = symmetrize(gen::grid2d(5, 5));
  const SymmetricMatrix matrix = make_spd_matrix(pattern, 1);

  Solver solver;
  EXPECT_THROW(solver.plan(), Error);
  EXPECT_THROW(solver.factorize(matrix), Error);
  EXPECT_THROW(solver.solve(std::vector<double>(25, 1.0)), Error);
  EXPECT_THROW(solver.permutation(), Error);
  EXPECT_THROW(solver.assembly(), Error);
  EXPECT_THROW(solver.planned_traversal(), Error);
  EXPECT_THROW(solver.factor(), Error);

  solver.analyze(pattern);
  EXPECT_THROW(solver.factorize(matrix), Error);  // plan() missing
  EXPECT_THROW(solver.solve(std::vector<double>(25, 1.0)), Error);

  solver.plan();
  EXPECT_THROW(solver.solve(std::vector<double>(25, 1.0)), Error);
  solver.factorize(matrix);
  EXPECT_EQ(solver.solve(std::vector<double>(25, 1.0)).size(), 25u);

  // The error message names the missing phase.
  Solver fresh;
  try {
    fresh.plan();
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("analyze()"), std::string::npos);
  }

  // Re-analyzing invalidates the plan and the factor.
  solver.analyze(pattern);
  EXPECT_TRUE(solver.analyzed());
  EXPECT_FALSE(solver.planned());
  EXPECT_THROW(solver.factorize(matrix), Error);
}

TEST(SolverStateMachine, RejectsBadInputs) {
  Solver solver;
  // Unsymmetrized pattern: no diagonal, one triangle only.
  EXPECT_THROW(
      solver.analyze(SparsePattern::from_coo(3, 3, {{1, 0}, {2, 1}})), Error);
  // Non-square pattern.
  EXPECT_THROW(solver.analyze(SparsePattern::from_coo(2, 3, {{0, 0}})),
               Error);

  const SparsePattern pattern = symmetrize(gen::grid2d(5, 5));
  solver.analyze(pattern);
  PlanOptions plan;
  plan.memory_budget = 0;
  EXPECT_THROW(solver.plan(plan), Error);
  // Below max MemReq no schedule exists.
  plan.memory_budget = solver.assembly().tree.max_mem_req() - 1;
  EXPECT_THROW(solver.plan(plan), Error);

  solver.plan();
  // Mismatched matrix pattern.
  const SparsePattern other = symmetrize(gen::grid2d(6, 6));
  EXPECT_THROW(solver.factorize(make_spd_matrix(other, 3)), Error);
  // Wrong value count.
  EXPECT_THROW(solver.factorize(std::vector<double>(3, 1.0)), Error);
  // Negative workers.
  FactorizeOptions factorize;
  factorize.workers = -1;
  EXPECT_THROW(solver.factorize(make_spd_matrix(pattern, 3), factorize),
               Error);

  solver.factorize(make_spd_matrix(pattern, 3));
  // Wrong rhs size.
  EXPECT_THROW(solver.solve(std::vector<double>(7, 1.0)), Error);
}

// ---------------------------------------------------------------------------
// Solve: permutation round-trip, multi-RHS, residual
// ---------------------------------------------------------------------------

TEST(SolverSolve, MultiRhsMatchesPerColumnSolveWithFactor) {
  const SparsePattern pattern = symmetrize(gen::grid2d(7, 7));
  const SymmetricMatrix matrix = make_spd_matrix(pattern, 11);
  const std::size_t n = static_cast<std::size_t>(pattern.cols());

  Solver solver;
  solver.analyze(pattern).plan().factorize(matrix);

  Prng prng(303);
  std::vector<std::vector<double>> rhs(3, std::vector<double>(n));
  for (auto& column : rhs) {
    for (double& v : column) {
      v = 2.0 * prng.uniform_real() - 1.0;
    }
  }
  const std::vector<std::vector<double>> solutions = solver.solve(rhs);
  ASSERT_EQ(solutions.size(), rhs.size());
  EXPECT_EQ(solver.stats().rhs_solved, 3);

  const std::vector<Index>& perm = solver.permutation();
  for (std::size_t c = 0; c < rhs.size(); ++c) {
    // Per-column reference through the exported low-level entry point.
    std::vector<double> permuted_rhs(n);
    for (std::size_t k = 0; k < n; ++k) {
      permuted_rhs[k] = rhs[c][static_cast<std::size_t>(perm[k])];
    }
    const std::vector<double> y =
        solve_with_factor(solver.factor(), std::move(permuted_rhs));
    std::vector<double> expected(n);
    for (std::size_t k = 0; k < n; ++k) {
      expected[static_cast<std::size_t>(perm[k])] = y[k];
    }
    EXPECT_EQ(solutions[c], expected) << "column " << c;

    // And the solution actually solves A x = b in the original ordering.
    EXPECT_LT(relative_residual(matrix, solutions[c], rhs[c]), 1e-10)
        << "column " << c;
  }
}

// ---------------------------------------------------------------------------
// Out-of-core plans through the facade
// ---------------------------------------------------------------------------

TEST(SolverOutOfCore, TightBudgetPlansSpillsAndReproducesTheFactor) {
  // A mid-size grid under nested dissection leaves daylight between the
  // structural floor (max MemReq) and the in-core optimum — the regime
  // where a tight budget genuinely forces spills.
  const SparsePattern pattern = symmetrize(gen::grid2d(16, 16));
  const SymmetricMatrix matrix = make_spd_matrix(pattern, 23);

  Solver unconstrained;
  unconstrained
      .analyze(pattern, analyze_options(OrderingChoice::kNestedDissection, 1))
      .plan()
      .factorize(matrix, workers_options(1));
  const Weight optimum = unconstrained.stats().in_core_optimum;
  const Weight floor = unconstrained.assembly().tree.max_mem_req();
  ASSERT_LT(floor, optimum);

  Solver solver;
  solver.analyze(pattern,
                 analyze_options(OrderingChoice::kNestedDissection, 1));
  PlanOptions plan;
  plan.memory_budget = (floor + optimum) / 2;
  solver.plan(plan);
  EXPECT_NE(solver.stats().strategy.find("out-of-core"), std::string::npos);
  EXPECT_GT(solver.stats().planned_io_volume, 0);
  EXPECT_FALSE(solver.planned_io_schedule().writes.empty());

  // Four workers still run the serial spilling engine, which stays within
  // budget and reproduces the in-core factor bit for bit.
  solver.factorize(matrix, workers_options(4));
  EXPECT_EQ(solver.stats().engine, "out-of-core");
  EXPECT_LE(solver.stats().measured_peak_entries,
            solver.stats().memory_budget);
  EXPECT_EQ(solver.factor().values, unconstrained.factor().values);
  // Same eliminations, same flop count: the stats are complete on every
  // engine.
  EXPECT_EQ(solver.stats().flops, unconstrained.stats().flops);
  EXPECT_GT(solver.stats().flops, 0);

  // Solves work off the spilled-plan factor like any other.
  const std::vector<double> x =
      solver.solve(std::vector<double>(static_cast<std::size_t>(pattern.cols()), 1.0));
  EXPECT_EQ(x.size(), static_cast<std::size_t>(pattern.cols()));
}

// ---------------------------------------------------------------------------
// The engine: derived from the worker count and the plan
// ---------------------------------------------------------------------------

TEST(SolverEngine, FollowsWorkersAndPlan) {
  const SparsePattern pattern = symmetrize(gen::grid2d(16, 16));
  const SymmetricMatrix matrix = make_spd_matrix(pattern, 23);
  Solver solver;
  solver.analyze(pattern,
                 analyze_options(OrderingChoice::kNestedDissection, 1));
  const Tree& tree = solver.assembly().tree;
  solver.plan();
  const Weight optimum = solver.stats().in_core_optimum;
  const Weight floor =
      std::max(tree.max_mem_req(), tree.file_size(tree.root()));
  ASSERT_LT(floor, optimum);
  PlanOptions in_core;
  PlanOptions out_of_core;
  out_of_core.memory_budget = (floor + optimum) / 2;

  struct Row {
    int workers;
    const PlanOptions* plan;
    const char* engine;
  };
  for (const Row& row : {Row{1, &in_core, "serial"},
                         Row{4, &in_core, "parallel"},
                         Row{1, &out_of_core, "out-of-core"},
                         Row{4, &out_of_core, "out-of-core"}}) {
    solver.plan(*row.plan).factorize(matrix, workers_options(row.workers));
    const SolverStats stats = solver.stats();
    EXPECT_EQ(stats.engine, row.engine) << "w=" << row.workers;
    EXPECT_FALSE(stats.stall_fallback) << "w=" << row.workers;
  }
}

TEST(SolverEngine, GreedyStallFallsBackToTheSerialEngine) {
  // A private one-worker pool whose worker is held busy leaves the
  // executor's anchor as the only lane, so the two-worker greedy schedule
  // is one fixed sequence of decisions. At the MinMem budget it stalls on
  // this grid.
  const SparsePattern pattern = symmetrize(gen::grid2d(10, 10));
  const SymmetricMatrix matrix = make_spd_matrix(pattern, 5);
  Solver solver;
  solver.analyze(pattern).plan();
  PlanOptions tight;
  tight.memory_budget = solver.stats().in_core_optimum;
  solver.plan(tight);

  Solver reference;
  reference.analyze(pattern).plan(tight).factorize(matrix,
                                                    workers_options(1));

  WorkerPool pool(1);
  testing::HoldWorkers held(pool, 1);
  ASSERT_EQ(held.count(), 1u);
  FactorizeOptions options = workers_options(2);
  options.kernel.pool = &pool;
  solver.factorize(matrix, options);
  const SolverStats stalled = solver.stats();
  EXPECT_TRUE(stalled.stall_fallback);
  EXPECT_EQ(stalled.engine, "serial");
  EXPECT_EQ(stalled.workers, 1);
  EXPECT_LE(stalled.measured_peak_entries, stalled.modeled_peak_entries);
  EXPECT_LE(stalled.modeled_peak_entries, stalled.memory_budget);
  EXPECT_EQ(solver.factor().values, reference.factor().values);

  // Lookahead admission on the same lane never stalls: the budget covers
  // the planned traversal, its witness.
  // The stalled run gave its panels back to the fallback; the next run
  // reuses them too.
  const double* const panels = solver.factor().values.data();
  options.admission = AdmissionPolicy::kLookahead;
  solver.factorize(matrix, options);
  EXPECT_EQ(solver.factor().values.data(), panels);
  const SolverStats lookahead = solver.stats();
  EXPECT_FALSE(lookahead.stall_fallback);
  EXPECT_EQ(lookahead.engine, "parallel");
  EXPECT_LE(lookahead.measured_peak_entries, lookahead.modeled_peak_entries);
  EXPECT_LE(lookahead.modeled_peak_entries, lookahead.memory_budget);
  EXPECT_EQ(solver.factor().values, reference.factor().values);
}

// ---------------------------------------------------------------------------
// Numeric storage kept across refactorizations
// ---------------------------------------------------------------------------

/// One factorize() engine: the worker count and whether the plan spills.
struct EngineCase {
  const char* engine;
  int workers;
  bool out_of_core;
};

constexpr EngineCase kEngineCases[] = {{"serial", 1, false},
                                       {"parallel", 2, false},
                                       {"parallel", 4, false},
                                       {"out-of-core", 1, true}};

/// `pattern` analyzed under nested dissection and planned for `engine`: an
/// out-of-core plan gets a budget halfway between the structural floor
/// and the in-core optimum.
Solver planned_for(const SparsePattern& pattern, const EngineCase& engine) {
  Solver solver;
  solver.analyze(pattern,
                 analyze_options(OrderingChoice::kNestedDissection, 1));
  solver.plan();
  if (engine.out_of_core) {
    const Tree& tree = solver.assembly().tree;
    PlanOptions plan;
    plan.memory_budget =
        (std::max(tree.max_mem_req(), tree.file_size(tree.root())) +
         solver.stats().in_core_optimum) /
        2;
    solver.plan(plan);
  }
  return solver;
}

/// The factor a fresh Solver computes for `matrix` on `engine`.
PanelBuffer fresh_factor(const SymmetricMatrix& matrix,
                         const EngineCase& engine) {
  Solver fresh = planned_for(matrix.pattern(), engine);
  fresh.factorize(matrix, workers_options(engine.workers));
  EXPECT_EQ(fresh.stats().engine, engine.engine);
  return fresh.factor().values;
}

SymmetricMatrix negated(const SymmetricMatrix& spd) {
  std::vector<double> values = spd.values();
  for (double& v : values) {
    v = -v;
  }
  return SymmetricMatrix(spd.pattern(), std::move(values));
}

TEST(SolverStorage, RefactorIsBitIdenticalToAFreshSolverAcrossPatterns) {
  // Two orders: the second adopt() hands the retained lanes a pattern of
  // another n, and the third hands them the first one back.
  const SparsePattern p = symmetrize(gen::grid2d(16, 16));
  const SparsePattern q = symmetrize(gen::grid2d(13, 13));
  const SymmetricMatrix a = make_spd_matrix(p, 31);
  const SymmetricMatrix b = make_spd_matrix(p, 32);
  const SymmetricMatrix c = make_spd_matrix(q, 33);
  for (const EngineCase& engine : kEngineCases) {
    SCOPED_TRACE(std::string(engine.engine) + " w=" +
                 std::to_string(engine.workers));
    const FactorizeOptions options = workers_options(engine.workers);
    Solver solver = planned_for(p, engine);
    const SolverSymbolic own = solver.symbolic();

    solver.factorize(a, options).factorize(b, options);
    EXPECT_EQ(solver.stats().engine, engine.engine);
    EXPECT_EQ(solver.factor().values, fresh_factor(b, engine));

    solver.adopt(planned_for(q, engine).symbolic()).factorize(c, options);
    EXPECT_EQ(solver.stats().engine, engine.engine);
    EXPECT_EQ(solver.factor().values, fresh_factor(c, engine));

    solver.adopt(own).factorize(a, options);
    EXPECT_EQ(solver.factor().values, fresh_factor(a, engine));
  }
}

TEST(SolverStorage, ThrowingFactorizeLeavesTheSolverPlanned) {
  const SparsePattern pattern = symmetrize(gen::grid2d(16, 16));
  const SymmetricMatrix a = make_spd_matrix(pattern, 41);
  const SymmetricMatrix b = make_spd_matrix(pattern, 42);
  const std::vector<double> rhs(static_cast<std::size_t>(pattern.cols()),
                                1.0);
  for (const EngineCase& engine : kEngineCases) {
    SCOPED_TRACE(std::string(engine.engine) + " w=" +
                 std::to_string(engine.workers));
    const FactorizeOptions options = workers_options(engine.workers);
    Solver solver = planned_for(pattern, engine);
    solver.factorize(a, options);
    ASSERT_TRUE(solver.factorized());

    // Not SPD: the first pivot fails, mid-run on a parallel engine.
    EXPECT_THROW(solver.factorize(negated(a), options), Error);
    EXPECT_FALSE(solver.factorized());
    EXPECT_TRUE(solver.planned());
    EXPECT_THROW(solver.factor(), Error);
    try {
      solver.solve(rhs);
      ADD_FAILURE() << "solve() after a throwing factorize() must throw";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("call factorize() first"),
                std::string::npos)
          << e.what();
    }

    // A rejected input drops the factor as well.
    solver.factorize(a, options);
    EXPECT_THROW(solver.factorize(std::vector<double>(3, 1.0), options),
                 Error);
    EXPECT_FALSE(solver.factorized());

    solver.factorize(b, options);
    EXPECT_EQ(solver.factor().values, fresh_factor(b, engine));
  }
}

TEST(SolverStorage, RefactorWritesIntoThePreviousFactorsPanels) {
  // The address stands in for "no new pages": a refactorization that
  // allocated its panels while the old factor was still held would get a
  // different buffer.
  const SparsePattern pattern = symmetrize(gen::grid2d(16, 16));
  const SymmetricMatrix a = make_spd_matrix(pattern, 51);
  const SymmetricMatrix b = make_spd_matrix(pattern, 52);
  for (const EngineCase& engine : kEngineCases) {
    SCOPED_TRACE(std::string(engine.engine) + " w=" +
                 std::to_string(engine.workers));
    const FactorizeOptions options = workers_options(engine.workers);
    Solver solver = planned_for(pattern, engine);
    solver.factorize(a, options);
    const double* const panels = solver.factor().values.data();
    solver.factorize(b, options);
    EXPECT_EQ(solver.factor().values.data(), panels);
    // adopt() drops the factor but keeps the storage.
    solver.adopt(solver.symbolic()).factorize(a, options);
    EXPECT_EQ(solver.factor().values.data(), panels);
  }
}

// ---------------------------------------------------------------------------
// Stats bookkeeping
// ---------------------------------------------------------------------------

TEST(SolverStatsBookkeeping, PhaseTimersAndCountersBehave) {
  const SparsePattern pattern = symmetrize(gen::grid2d(6, 6));
  const SymmetricMatrix matrix = make_spd_matrix(pattern, 7);
  Solver solver;
  solver.analyze(pattern).plan().factorize(matrix);
  const SolverStats& stats = solver.stats();
  EXPECT_EQ(stats.n, 36);
  EXPECT_EQ(stats.pattern_nnz, pattern.nnz());
  EXPECT_GE(stats.factor_nnz, pattern.nnz() / 2);  // fill only grows
  EXPECT_GT(stats.tree_nodes, 0);
  EXPECT_GE(stats.analyze_seconds, 0.0);
  EXPECT_GE(stats.plan_seconds, 0.0);
  EXPECT_GE(stats.factorize_seconds, 0.0);
  EXPECT_EQ(stats.factorizations, 1);
  EXPECT_EQ(stats.rhs_solved, 0);

  solver.solve(std::vector<double>(36, 1.0));
  EXPECT_EQ(solver.stats().rhs_solved, 1);

  // analyze() resets the cumulative counters.
  solver.analyze(pattern);
  EXPECT_EQ(solver.stats().factorizations, 0);
  EXPECT_EQ(solver.stats().rhs_solved, 0);
}

// ---------------------------------------------------------------------------
// Concurrent refactorization of one shared analysis
// ---------------------------------------------------------------------------

TEST(SolverConcurrency, TenantsRefactorOneCachedAnalysisBitExactly) {
  const SparsePattern pattern = symmetrize(gen::grid2d(14, 14));
  SymbolicCache cache;
  const SolverSymbolic symbolic = cache.lookup(pattern).symbolic;
  constexpr int kTenants = 4;

  std::vector<SymmetricMatrix> matrices;
  std::vector<PanelBuffer> solo;
  FactorizeOptions serial;
  serial.workers = 1;
  for (int t = 0; t < kTenants; ++t) {
    matrices.push_back(make_spd_matrix(pattern, 300 + t));
    Solver reference;
    reference.analyze(pattern).plan().factorize(matrices.back(), serial);
    solo.push_back(reference.factor().values);
  }

  std::vector<PanelBuffer> factors(kTenants);
  std::vector<std::string> errors(kTenants);
  std::latch start(kTenants);
  std::vector<std::thread> tenants;
  for (int t = 0; t < kTenants; ++t) {
    tenants.emplace_back([&, t] {
      const auto slot = static_cast<std::size_t>(t);
      try {
        Solver tenant;
        tenant.adopt(symbolic);
        start.arrive_and_wait();
        tenant.factorize(matrices[slot]);
        factors[slot] = tenant.factor().values;
        if (tenant.assembly().fronts != symbolic.analysis->assembly.fronts) {
          errors[slot] = "front structure was copied, not shared";
        }
      } catch (const std::exception& e) {
        errors[slot] = e.what();
      }
    });
  }
  for (std::thread& tenant : tenants) {
    tenant.join();
  }
  for (std::size_t t = 0; t < kTenants; ++t) {
    EXPECT_EQ(errors[t], "") << "tenant " << t;
    EXPECT_EQ(factors[t], solo[t]) << "tenant " << t;
  }
}

}  // namespace
}  // namespace treemem
