// Tests for the experiment layer: performance profiles, ratio statistics
// and the corpus pipeline (small scale).
#include <gtest/gtest.h>

#include <cmath>

#include "core/check.hpp"
#include "core/liu.hpp"
#include "core/minmem.hpp"
#include "core/postorder.hpp"
#include "multifrontal/numeric_parallel.hpp"
#include "perf/corpus.hpp"
#include "perf/profile.hpp"
#include "solver/solver.hpp"

namespace treemem {
namespace {

TEST(Profiles, KnownTable) {
  // Two methods over three cases: A = {2, 3, 10}, B = {4, 3, 5}.
  // Best = {2, 3, 5}; ratios A = {1, 1, 2}, B = {2, 1, 1}.
  const std::vector<std::vector<double>> values{{2, 4}, {3, 3}, {10, 5}};
  const auto profiles = performance_profiles(values, {"A", "B"});
  ASSERT_EQ(profiles.size(), 2u);
  EXPECT_DOUBLE_EQ(profiles[0].fraction.front(), 2.0 / 3.0);  // rho_A(1)
  EXPECT_DOUBLE_EQ(profiles[1].fraction.front(), 2.0 / 3.0);  // rho_B(1)
  EXPECT_DOUBLE_EQ(profiles[0].tau.back(), 2.0);
  EXPECT_DOUBLE_EQ(profiles[0].fraction.back(), 1.0);
}

TEST(Profiles, FailuresNeverReachOne) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> values{{1, inf}, {1, 2}};
  const auto profiles = performance_profiles(values, {"A", "B"});
  EXPECT_DOUBLE_EQ(profiles[0].fraction.back(), 1.0);
  EXPECT_DOUBLE_EQ(profiles[1].fraction.back(), 0.5);
}

TEST(Profiles, MaxTauClipsCurves) {
  const std::vector<std::vector<double>> values{{1, 100}};
  ProfileOptions options;
  options.max_tau = 5.0;
  const auto profiles = performance_profiles(values, {"A", "B"}, options);
  EXPECT_LE(profiles[1].tau.back(), 5.0);
}

TEST(Profiles, ZeroBestHandled) {
  const std::vector<std::vector<double>> values{{0, 0}, {0, 3}};
  const auto profiles = performance_profiles(values, {"A", "B"});
  EXPECT_DOUBLE_EQ(profiles[0].fraction.front(), 1.0);
  EXPECT_DOUBLE_EQ(profiles[1].fraction.back(), 0.5);
}

TEST(Profiles, RenderedPlotMentionsMethods) {
  const std::vector<std::vector<double>> values{{2, 4}, {3, 3}};
  const auto profiles = performance_profiles(values, {"alpha", "beta"});
  const std::string plot = render_profiles(profiles);
  EXPECT_NE(plot.find("alpha"), std::string::npos);
  EXPECT_NE(plot.find("beta"), std::string::npos);
}

TEST(RatioStats, MatchesHandComputation) {
  const std::vector<double> values{10, 12, 10};
  const std::vector<double> best{10, 10, 10};
  const RatioStats stats = ratio_stats(values, best);
  EXPECT_EQ(stats.cases, 3u);
  EXPECT_EQ(stats.non_optimal, 1u);
  EXPECT_NEAR(stats.non_optimal_fraction, 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.max_ratio, 1.2);
  EXPECT_NEAR(stats.mean_ratio, (1 + 1.2 + 1) / 3.0, 1e-12);
  EXPECT_GT(stats.stddev_ratio, 0.0);
}

TEST(Corpus, MatricesAreWellFormed) {
  CorpusOptions options;
  options.scale = 0.08;  // tiny for test speed
  const auto matrices = build_corpus_matrices(options);
  EXPECT_GE(matrices.size(), 15u);
  for (const auto& m : matrices) {
    EXPECT_TRUE(m.pattern.is_symmetric()) << m.name;
    EXPECT_TRUE(m.pattern.has_full_diagonal()) << m.name;
    EXPECT_GE(m.pattern.cols(), 4) << m.name;
  }
}

TEST(Corpus, InstancesAreDeterministicAndUsable) {
  CorpusOptions options;
  options.scale = 0.05;
  options.relax_values = {1, 4};
  const auto a = build_corpus_instances(options);
  const auto b = build_corpus_instances(options);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GE(a.size(), 30u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    ASSERT_EQ(a[i].tree.size(), b[i].tree.size());
    EXPECT_EQ(a[i].tree.parents(), b[i].tree.parents());
    EXPECT_EQ(a[i].tree.files(), b[i].tree.files());
  }
  // Every instance runs through the full algorithm stack.
  for (std::size_t i = 0; i < a.size(); i += 7) {
    const Tree& tree = a[i].tree;
    const TraversalResult liu = liu_optimal(tree);
    const MinMemResult mm = minmem_optimal(tree);
    EXPECT_EQ(liu.peak, mm.peak) << a[i].name;
    EXPECT_GE(best_postorder(tree).peak, liu.peak) << a[i].name;
    EXPECT_EQ(traversal_peak(tree, liu.order), liu.peak);
  }
}

TEST(Corpus, NumericInstancesDriveTheParallelPipeline) {
  // End-to-end regression guard: the two smallest corpus matrices, through
  // matrix -> ordering -> assembly tree -> parallel numeric factorization,
  // at both orderings — the same path bench/numeric_parallel sweeps.
  CorpusOptions options;
  options.scale = 0.05;
  const auto instances = build_numeric_instances(options, /*max_matrices=*/2);
  ASSERT_EQ(instances.size(), 4u);  // 2 matrices x 2 orderings
  for (const NumericInstance& inst : instances) {
    ASSERT_EQ(inst.assembly.columns, inst.matrix.size()) << inst.name;
    const MultifrontalResult serial = multifrontal_cholesky(
        inst.matrix, inst.assembly,
        reverse_traversal(best_postorder(inst.assembly.tree).order));
    EXPECT_LT(relative_residual(inst.matrix, serial.factor), 1e-12)
        << inst.name;
    const ParallelFactorResult parallel =
        factor_parallel(inst.matrix, inst.assembly, kInfiniteWeight,
                        /*workers=*/4);
    ASSERT_TRUE(parallel.feasible) << inst.name;
    EXPECT_EQ(parallel.factor.values, serial.factor.values) << inst.name;
    EXPECT_LE(parallel.measured_peak_entries, parallel.modeled_peak_entries)
        << inst.name;
  }
  // Determinism across rebuilds: the corpus is seeded end to end.
  const auto again = build_numeric_instances(options, 2);
  ASSERT_EQ(again.size(), instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    EXPECT_EQ(again[i].name, instances[i].name);
    EXPECT_EQ(again[i].assembly.tree.parents(),
              instances[i].assembly.tree.parents());
  }
}

TEST(Corpus, NumericInstancesAreTheSolversAnalysis) {
  // The numeric slice factors exactly what Solver::analyze builds for the
  // same pattern, ordering and relax: its permutation (seen through the
  // permuted values) and its chain-merged front structure.
  const CorpusOptions options;
  const auto instances = build_numeric_instances(options, 5);
  const auto matrices = smallest_corpus_matrices(options, 5);
  ASSERT_EQ(instances.size(), 2 * matrices.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const NumericInstance& inst = instances[i];
    const CorpusMatrix& source = matrices[i / 2];
    ASSERT_EQ(inst.matrix_name, source.name);
    Solver solver;
    solver.analyze(source.pattern,
                   {.ordering = inst.ordering, .relax = inst.relax});
    const SymmetricMatrix expected =
        make_spd_matrix(source.pattern, options.seed)
            .permuted(solver.permutation());
    EXPECT_EQ(inst.matrix.pattern().col_ptr(), expected.pattern().col_ptr())
        << inst.name;
    EXPECT_EQ(inst.matrix.pattern().row_idx(), expected.pattern().row_idx())
        << inst.name;
    EXPECT_EQ(inst.matrix.values(), expected.values()) << inst.name;
    EXPECT_EQ(inst.assembly.tree.parents(),
              solver.assembly().tree.parents())
        << inst.name;
    EXPECT_TRUE(*inst.assembly.fronts == *solver.assembly().fronts)
        << inst.name;
  }
}

TEST(Corpus, RandomWeightInstancesKeepStructure) {
  CorpusOptions options;
  options.scale = 0.05;
  options.relax_values = {4};
  const auto base = build_corpus_instances(options);
  const auto random = build_random_weight_instances(options, 2);
  ASSERT_EQ(random.size(), base.size() * 2);
  EXPECT_EQ(random[0].tree.parents(), base[0].tree.parents());
  EXPECT_NE(random[0].tree.files(), base[0].tree.files());
}

}  // namespace
}  // namespace treemem
