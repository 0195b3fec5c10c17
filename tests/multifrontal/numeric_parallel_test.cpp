// Correctness suite for the parallel numeric multifrontal engine
// (multifrontal/numeric_parallel.hpp) — the first place worker threads
// share numeric buffers, so this binary also runs under TSan in CI.
//
// Pinned properties:
//   * factor_parallel at w ∈ {1, 2, 8} produces the serial engine's factor
//     bit for bit (fronts write disjoint columns and extend-add walks
//     children in tree order, so sums are schedule-exact), and L·Lᵀ
//     reconstructs A, across a randomized seeded SPD corpus spanning
//     chain-, star- and random-shaped assembly trees and both orderings;
//   * memory-model pinning: at w = 1 over perfectly amalgamated trees the
//     engine's measured live entries equal the abstract Eq. 1 transient of
//     core/check.hpp at every step; at any w, measured peak <= modeled
//     peak <= budget; the minimum feasible budget (the w = 1 modeled peak)
//     completes without stalls;
//   * schedule-independent outputs (factor values, flops, executed-task
//     set, final resident memory) are invariant across repeated w = 4 runs;
//   * a non-SPD matrix surfaces a clean Error through the executor's
//     exception-propagation contract, and an undersized budget reports
//     infeasible instead of hanging.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/check.hpp"
#include "core/postorder.hpp"
#include "multifrontal/numeric_parallel.hpp"
#include "perf/corpus.hpp"
#include "sparse/generators.hpp"
#include "support/prng.hpp"
#include "test_util.hpp"

namespace treemem {
namespace {

/// Instances come from the corpus's own numeric pipeline
/// (build_numeric_instance), so this suite tests exactly the path the
/// bench and perf layers run — no drifting local re-implementation.
NumericInstance make_instance(const SparsePattern& raw, std::uint64_t seed,
                              OrderingKind ordering, Index relax) {
  return build_numeric_instance({"test", symmetrize(raw)}, ordering, relax,
                                seed);
}

MultifrontalResult serial_factor(const NumericInstance& inst) {
  // The scalar reference: one pivot per panel, no leasing.
  return multifrontal_cholesky(
      inst.matrix, inst.assembly,
      reverse_traversal(best_postorder(inst.assembly.tree).order),
      KernelConfig{.block_size = 1, .workers = 1});
}

/// Pattern families chosen for their assembly-tree shapes: narrow banded →
/// chain-like, arrowhead → star-like, random/grid → irregular.
std::vector<SparsePattern> pattern_family(std::uint64_t seed) {
  Prng prng(seed * 9176);
  return {
      gen::banded(60, 2, 1.0, prng),        // chain-shaped etree
      gen::arrowhead(48, 6),                // star-shaped etree
      gen::random_symmetric(64, 3.0, prng), // random tree
      gen::grid2d(8, 8),                    // realistic FEM-ish tree
  };
}

class NumericParallelSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NumericParallelSweep, MatchesSerialFactorAndReconstructsA) {
  // 7 seeds x 4 patterns x 2 orderings = 56 instances; with the varying
  // relax levels they span chain/star/random trees, both orderings and all
  // amalgamation regimes the serial suite exercises.
  const std::uint64_t seed = GetParam();
  const Index relax_by_seed[] = {0, 1, 4};
  const Index relax = relax_by_seed[seed % 3];
  for (const auto& raw : pattern_family(seed)) {
    for (const OrderingKind ordering :
         {OrderingKind::kMinDegree, OrderingKind::kNestedDissection}) {
      const NumericInstance inst = make_instance(raw, seed, ordering, relax);
      const MultifrontalResult serial = serial_factor(inst);
      ASSERT_LT(relative_residual(inst.matrix, serial.factor), 1e-12);

      // Wider panels on the serial driver are bit-identical to the scalar
      // reference across the whole 56-instance corpus (block size varied
      // by seed so the sweep covers width-1, mid, and
      // wider-than-most-fronts panels).
      {
        KernelConfig blocked;
        blocked.block_size = static_cast<std::size_t>(1) << (seed % 7);
        const MultifrontalResult blocked_run = multifrontal_cholesky(
            inst.matrix, inst.assembly,
            reverse_traversal(best_postorder(inst.assembly.tree).order),
            blocked);
        EXPECT_TRUE(testing::bitwise_equal(blocked_run.factor.values,
                                           serial.factor.values))
            << "blocked nb=" << blocked.block_size;
        EXPECT_EQ(blocked_run.flops, serial.flops);
        EXPECT_EQ(blocked_run.peak_live_entries, serial.peak_live_entries);
      }

      for (const int workers : {1, 2, 8}) {
        ParallelFactorOptions options;
        options.workers = workers;
        const ParallelFactorResult run =
            factor_parallel(inst.matrix, inst.assembly, options);
        ASSERT_TRUE(run.feasible) << "w=" << workers;
        // Bit-exact, not merely close: same kernels, same summation order.
        EXPECT_TRUE(
            testing::bitwise_equal(run.factor.values, serial.factor.values))
            << "w=" << workers << " relax=" << relax;
        EXPECT_EQ(run.flops, serial.flops);
        EXPECT_LE(run.measured_peak_entries, run.modeled_peak_entries);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NumericParallelSweep,
                         ::testing::Range<std::uint64_t>(1, 8));

TEST(NumericParallelMemory, SingleWorkerMatchesEquationOneExactly) {
  // With perfect amalgamation every front is exactly (eta+mu-1)^2 and every
  // contribution block (mu-1)^2, so on a single-worker schedule the
  // engine's measured occupancy must replay the abstract Eq. 1 accounting
  // of core/check.hpp step for step — transient AND after-step residents.
  for (const std::uint64_t seed : {3ULL, 11ULL, 19ULL}) {
    for (const auto& raw : pattern_family(seed)) {
      const NumericInstance inst =
          make_instance(raw, seed, OrderingKind::kMinDegree, /*relax=*/0);
      const Tree& tree = inst.assembly.tree;
      ParallelFactorOptions options;
      options.workers = 1;
      const ParallelFactorResult run =
          factor_parallel(inst.matrix, inst.assembly, options);
      ASSERT_TRUE(run.feasible);
      ASSERT_EQ(run.completion_order.size(),
                static_cast<std::size_t>(tree.size()));

      Weight resident = 0;
      for (std::size_t t = 0; t < run.completion_order.size(); ++t) {
        const NodeId x = run.completion_order[t];
        const Weight transient = resident + tree.work_size(x) +
                                 tree.file_size(x);
        EXPECT_EQ(run.transient_per_step[t], transient) << "step " << t;
        resident += tree.file_size(x) - tree.child_file_sum(x);
        EXPECT_EQ(run.live_after_step[t], resident) << "step " << t;
      }
      EXPECT_EQ(run.measured_peak_entries,
                in_tree_traversal_peak(tree, run.completion_order));
      EXPECT_EQ(run.measured_peak_entries, run.modeled_peak_entries);
    }
  }
}

TEST(NumericParallelMemory, MeasuredPeakWithinModelAndBudget) {
  const NumericInstance inst = make_instance(
      gen::grid2d(9, 9), 5, OrderingKind::kMinDegree, /*relax=*/4);
  const Tree& tree = inst.assembly.tree;
  const MultifrontalResult serial = serial_factor(inst);

  // A budget no reachable occupancy can exceed (all files resident plus a
  // full transient per worker): admission never blocks, so the run must
  // complete, with the modeled peak — and hence the measured one — below it.
  Weight all_files = 0;
  for (NodeId i = 0; i < tree.size(); ++i) {
    all_files += tree.file_size(i);
  }
  for (const int workers : {2, 4, 8}) {
    const Weight budget = all_files +
                          static_cast<Weight>(workers) * tree.max_mem_req();
    const ParallelFactorResult run =
        factor_parallel(inst.matrix, inst.assembly, budget, workers);
    ASSERT_TRUE(run.feasible) << "w=" << workers;
    EXPECT_LE(run.modeled_peak_entries, budget);
    EXPECT_LE(run.measured_peak_entries, run.modeled_peak_entries);
    EXPECT_TRUE(
        testing::bitwise_equal(run.factor.values, serial.factor.values));
  }

  // Tight budgets may defer or stall the greedy schedule depending on the
  // interleaving; either way the contract holds: a feasible run respects
  // the bound, an infeasible one reports cleanly instead of hanging.
  const ParallelFactorResult w1 = factor_parallel(
      inst.matrix, inst.assembly, kInfiniteWeight, 1);
  ASSERT_TRUE(w1.feasible);
  const ParallelFactorResult tight = factor_parallel(
      inst.matrix, inst.assembly, w1.modeled_peak_entries, 4);
  if (tight.feasible) {
    EXPECT_LE(tight.modeled_peak_entries, w1.modeled_peak_entries);
    EXPECT_LE(tight.measured_peak_entries, tight.modeled_peak_entries);
    EXPECT_TRUE(
        testing::bitwise_equal(tight.factor.values, serial.factor.values));
  } else {
    EXPECT_TRUE(tight.factor.values.empty());
  }
}

TEST(NumericParallelMemory, MinimumFeasibleBudgetCompletesWithoutStall) {
  // At w = 1 the greedy executor replays the unbounded run's decisions
  // whenever they fit, so its own peak is the minimum feasible budget for
  // this policy — running at exactly that budget must complete.
  for (const std::uint64_t seed : {2ULL, 7ULL}) {
    for (const auto& raw : pattern_family(seed)) {
      const NumericInstance inst = make_instance(
          raw, seed, OrderingKind::kNestedDissection, /*relax=*/1);
      const ParallelFactorResult free_run = factor_parallel(
          inst.matrix, inst.assembly, kInfiniteWeight, 1);
      ASSERT_TRUE(free_run.feasible);
      const ParallelFactorResult pinned = factor_parallel(
          inst.matrix, inst.assembly, free_run.modeled_peak_entries, 1);
      ASSERT_TRUE(pinned.feasible);
      EXPECT_EQ(pinned.modeled_peak_entries, free_run.modeled_peak_entries);
      EXPECT_EQ(pinned.completion_order, free_run.completion_order);
    }
  }
}

TEST(NumericParallelDeterminism, RepeatedRunsAgreeOnScheduleIndependentOutputs) {
  const NumericInstance inst = make_instance(
      gen::grid2d(10, 10), 23, OrderingKind::kMinDegree, /*relax=*/1);
  const Tree& tree = inst.assembly.tree;
  std::vector<double> reference_values;
  long long reference_flops = 0;
  for (int run_index = 0; run_index < 3; ++run_index) {
    ParallelFactorOptions options;
    options.workers = 4;
    const ParallelFactorResult run =
        factor_parallel(inst.matrix, inst.assembly, options);
    ASSERT_TRUE(run.feasible);

    // Executed-task set: every supernode exactly once.
    Traversal sorted = run.completion_order;
    std::sort(sorted.begin(), sorted.end());
    for (NodeId i = 0; i < tree.size(); ++i) {
      ASSERT_EQ(sorted[static_cast<std::size_t>(i)], i);
    }
    // The root completes last and drains all contribution blocks.
    EXPECT_EQ(run.completion_order.back(), tree.root());
    EXPECT_EQ(run.live_after_step.back(), 0);

    if (run_index == 0) {
      reference_values = run.factor.values;
      reference_flops = run.flops;
    } else {
      EXPECT_TRUE(
          testing::bitwise_equal(run.factor.values, reference_values));
      EXPECT_EQ(run.flops, reference_flops);
    }
  }
}

TEST(NumericParallelFailure, NonSpdMatrixThrowsCleanly) {
  // Negate an SPD matrix: the first pivot of some front is negative, the
  // kernel throws on a worker thread, and the executor's contract delivers
  // the Error to the caller after draining the pool — no deadlock, no
  // partial silence.
  const SparsePattern sym = symmetrize(gen::grid2d(6, 6));
  const SymmetricMatrix spd = make_spd_matrix(sym, 13);
  std::vector<double> values;
  for (Index j = 0; j < sym.cols(); ++j) {
    for (const Index r : sym.column(j)) {
      values.push_back(-spd.value_of(r, j));
    }
  }
  const SymmetricMatrix negated(sym, std::move(values));
  const AssemblyTree assembly = build_assembly_tree(sym, {});
  ParallelFactorOptions options;
  options.workers = 4;
  EXPECT_THROW(factor_parallel(negated, assembly, options), Error);
}

TEST(NumericParallelFailure, UndersizedBudgetReportsInfeasible) {
  const NumericInstance inst = make_instance(
      gen::grid2d(7, 7), 3, OrderingKind::kMinDegree, /*relax=*/1);
  const Weight too_small = inst.assembly.tree.max_mem_req() - 1;
  const ParallelFactorResult run =
      factor_parallel(inst.matrix, inst.assembly, too_small, 4);
  EXPECT_FALSE(run.feasible);
  EXPECT_TRUE(run.factor.values.empty());
  EXPECT_TRUE(run.completion_order.empty());
}

TEST(NumericParallelFailure, RejectsBadArguments) {
  const NumericInstance inst = make_instance(
      gen::grid2d(4, 4), 1, OrderingKind::kMinDegree, /*relax=*/1);
  ParallelFactorOptions options;
  options.workers = 0;
  EXPECT_THROW(factor_parallel(inst.matrix, inst.assembly, options), Error);
  // Mismatched matrix/tree pair.
  const NumericInstance other = make_instance(
      gen::grid2d(5, 5), 1, OrderingKind::kMinDegree, /*relax=*/1);
  EXPECT_THROW(
      factor_parallel(inst.matrix, other.assembly, ParallelFactorOptions{}),
      Error);
}

}  // namespace
}  // namespace treemem
