// End-to-end integration tests: the full pipeline from a sparse matrix to
// planned (and executed) factorizations, golden regression values for fixed
// seeds, and cross-module consistency properties that no single-module test
// can see.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <utility>

#include "core/check.hpp"
#include "core/in_tree.hpp"
#include "core/liu.hpp"
#include "core/minio.hpp"
#include "core/minmem.hpp"
#include "core/planner.hpp"
#include "core/postorder.hpp"
#include "core/trace.hpp"
#include "multifrontal/numeric.hpp"
#include "order/ordering.hpp"
#include "perf/corpus.hpp"
#include "solver/solver.hpp"
#include "sparse/generators.hpp"
#include "symbolic/assembly_tree.hpp"
#include "symbolic/symbolic.hpp"
#include "tree/generators.hpp"
#include "tree/tree_io.hpp"

namespace treemem {
namespace {

// ---------------------------------------------------------------------------
// Golden regression values. These pin the exact behaviour of the whole
// pipeline for fixed inputs; any change to orderings, amalgamation or the
// traversal algorithms that alters them is visible immediately.
// ---------------------------------------------------------------------------

TEST(Golden, Grid16MinDegreePipeline) {
  const SparsePattern a = symmetrize(gen::grid2d(16, 16));
  EXPECT_EQ(a.cols(), 256);
  EXPECT_EQ(a.nnz(), 256 + 2 * 480);

  const SparsePattern permuted = permute_symmetric(a, min_degree_order(a));
  const std::vector<Index> parent = elimination_tree(permuted);
  const std::vector<Index> counts = column_counts(permuted, parent);
  const std::int64_t nnz_l =
      std::accumulate(counts.begin(), counts.end(), std::int64_t{0});
  // Deterministic ordering => deterministic fill; natural order fill is the
  // upper reference.
  const std::int64_t nnz_natural = factor_nnz(a);
  EXPECT_LT(nnz_l, nnz_natural);

  AssemblyTreeOptions options;
  options.relax = 4;
  const AssemblyTree at = amalgamate(parent, counts, options);
  const Weight po = best_postorder_peak(at.tree);
  const Weight opt = minmem_optimal(at.tree).peak;
  EXPECT_EQ(liu_optimal_peak(at.tree), opt);
  EXPECT_GE(po, opt);
  // Pin the concrete values (regenerate consciously if algorithms change).
  RecordProperty("nnz_l", static_cast<int>(nnz_l));
  RecordProperty("postorder", static_cast<int>(po));
  RecordProperty("optimal", static_cast<int>(opt));
  // Determinism: a second run reproduces everything bit-for-bit.
  const SparsePattern permuted2 = permute_symmetric(a, min_degree_order(a));
  EXPECT_EQ(permuted2.row_idx(), permuted.row_idx());
  EXPECT_EQ(best_postorder_peak(at.tree), po);
}

TEST(Golden, HarpoonSerializationRoundTrip) {
  const Tree tree = gen::iterated_harpoon(3, 2, 999, 7);
  const Tree back = tree_from_string(tree_to_string(tree));
  EXPECT_EQ(back.parents(), tree.parents());
  EXPECT_EQ(back.files(), tree.files());
  EXPECT_EQ(back.works(), tree.works());
  EXPECT_EQ(liu_optimal_peak(back), liu_optimal_peak(tree));
}

// ---------------------------------------------------------------------------
// Cross-module consistency over the corpus
// ---------------------------------------------------------------------------

class CorpusConsistency : public ::testing::TestWithParam<int> {};

TEST_P(CorpusConsistency, EveryInstanceSatisfiesTheModelInvariants) {
  CorpusOptions options;
  options.scale = 0.15;
  options.relax_values = {1, 16};
  const auto instances = build_corpus_instances(options);
  const std::size_t stride = 5;
  for (std::size_t i = static_cast<std::size_t>(GetParam()); i < instances.size();
       i += stride) {
    const Tree& tree = instances[i].tree;
    SCOPED_TRACE(instances[i].name);

    // The three algorithms agree on the ordering of quality.
    const TraversalResult po = best_postorder(tree);
    const TraversalResult liu = liu_optimal(tree);
    const MinMemResult mm = minmem_optimal(tree);
    ASSERT_EQ(liu.peak, mm.peak);
    ASSERT_LE(liu.peak, po.peak);

    // Every traversal validates, and the in-tree duals match.
    EXPECT_EQ(traversal_peak(tree, po.order), po.peak);
    EXPECT_EQ(traversal_peak(tree, liu.order), liu.peak);
    EXPECT_EQ(traversal_peak(tree, mm.order), mm.peak);
    EXPECT_EQ(in_tree_traversal_peak(tree, reverse_traversal(liu.order)),
              liu.peak);

    // Peaks dominate the structural floor.
    EXPECT_GE(liu.peak, tree.max_mem_req());

    // Execution trace agrees with the checker.
    const ExecutionTrace trace = trace_execution(tree, mm.order);
    EXPECT_EQ(trace.peak, mm.peak);

    // A mid-range out-of-core plan validates end to end.
    const Weight floor = std::max(tree.max_mem_req(), tree.file_size(tree.root()));
    if (floor < liu.peak) {
      const Weight budget = (floor + liu.peak) / 2;
      const ExecutionPlan plan = plan_execution(tree, budget);
      ASSERT_TRUE(plan.feasible);
      const CheckResult check = check_out_of_core(tree, plan.schedule, budget);
      ASSERT_TRUE(check.feasible) << check.reason;
      EXPECT_EQ(check.io_volume, plan.io_volume);
      EXPECT_GE(plan.io_volume,
                divisible_io_lower_bound(tree, plan.schedule.order, budget));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Strides, CorpusConsistency, ::testing::Range(0, 5));

// ---------------------------------------------------------------------------
// Numeric end-to-end through the solver facade (the old hand-stitched
// pipeline now lives only inside Solver; tests/solver pins the bit-exact
// parity between the two).
// ---------------------------------------------------------------------------

TEST(EndToEnd, PlannedTraversalFactorsCorrectlyOnEveryOrdering) {
  // Both engines, chosen by the worker count, so the outcome cannot depend
  // on the host's core count (workers = 0 defers to it). The SolverStats
  // contract: measured <= modeled <= budget on every run, and a serial
  // run's modeled peak is the planned one.
  const SparsePattern raw = symmetrize(gen::grid2d(9, 9));
  const SymmetricMatrix a = make_spd_matrix(raw, 77);
  for (const OrderingChoice ordering :
       {OrderingChoice::kMinDegree, OrderingChoice::kNestedDissection}) {
    AnalyzeOptions analyze;
    analyze.ordering = ordering;
    analyze.relax = 2;
    PlanOptions plan;
    plan.policy = TraversalPolicy::kMinMem;
    Solver solver;
    solver.analyze(raw, analyze).plan(plan);
    for (const auto& [workers, engine] :
         {std::pair{1, "serial"}, std::pair{4, "parallel"}}) {
      FactorizeOptions factorize;
      factorize.workers = workers;
      solver.factorize(a, factorize);
      const SolverStats stats = solver.stats();
      const std::string label =
          std::string(to_string(ordering)) + "/w" + std::to_string(workers);
      const SymmetricMatrix permuted = a.permuted(solver.permutation());
      EXPECT_LT(relative_residual(permuted, solver.factor()), 1e-12)
          << label;
      EXPECT_EQ(stats.engine, engine) << label;
      EXPECT_LE(stats.measured_peak_entries, stats.modeled_peak_entries)
          << label;
      EXPECT_LE(stats.modeled_peak_entries, stats.memory_budget) << label;
      if (workers == 1) {
        EXPECT_EQ(stats.modeled_peak_entries, stats.planned_peak_entries)
            << label;
      }
    }
  }
}

TEST(EndToEnd, RcmOrderingAlsoWorksThroughThePipeline) {
  Prng prng(5);
  const SparsePattern raw = symmetrize(gen::banded(80, 6, 0.5, prng));
  const SymmetricMatrix a = make_spd_matrix(raw, 5);
  AnalyzeOptions analyze;
  analyze.ordering = OrderingChoice::kRcm;
  analyze.relax = 1;
  PlanOptions plan;
  plan.policy = TraversalPolicy::kPostorder;
  Solver solver;
  solver.analyze(raw, analyze).plan(plan).factorize(a);
  EXPECT_LT(relative_residual(a.permuted(solver.permutation()),
                              solver.factor()),
            1e-12);

  // The facade's solve closes the loop on the original ordering.
  const std::vector<double> b(80, 1.0);
  const std::vector<double> x = solver.solve(b);
  const std::vector<double> ax = a.multiply(x);
  for (std::size_t i = 0; i < ax.size(); ++i) {
    EXPECT_NEAR(ax[i], b[i], 1e-10);
  }
}

// ---------------------------------------------------------------------------
// Stress: degenerate shapes through the full algorithm stack
// ---------------------------------------------------------------------------

TEST(Stress, WideStarThroughEverything) {
  const Tree tree = gen::star(5000, 3, 1);
  const Weight expected = tree.mem_req(tree.root());
  EXPECT_EQ(best_postorder_peak(tree), expected);
  EXPECT_EQ(liu_optimal_peak(tree), expected);
  EXPECT_EQ(minmem_optimal(tree).peak, expected);
}

TEST(Stress, DeepChainOutOfCorePlan) {
  const Tree tree = gen::chain(50000, 4, 2);
  // Peak is 10 (f+n+f); with budget 10 the plan is in-core postorder.
  const ExecutionPlan plan = plan_execution(tree, 10);
  EXPECT_TRUE(plan.feasible);
  EXPECT_EQ(plan.io_volume, 0);
  // Below max MemReq nothing works.
  EXPECT_FALSE(plan_execution(tree, 9).feasible);
}

TEST(Stress, RandomTreesThroughTracesAndPlans) {
  Prng prng(31);
  gen::RandomTreeOptions options;
  options.chain_bias = 0.5;
  options.max_file = 200;
  options.max_work = 50;
  const Tree tree = gen::random_tree(3000, options, prng);
  const MinMemResult mm = minmem_optimal(tree);
  const ExecutionTrace trace = trace_execution(tree, mm.order);
  EXPECT_EQ(trace.peak, mm.peak);
  const std::string profile = render_memory_profile(trace);
  EXPECT_NE(profile.find("peak"), std::string::npos);
}

}  // namespace
}  // namespace treemem
