// Tests for the out-of-core multifrontal engine: plans from the MinIO
// heuristics execute within their budgets, spill accounting matches the
// plan's model volume, and the factor stays numerically exact.
#include <gtest/gtest.h>

#include "core/liu.hpp"
#include "core/minio.hpp"
#include "core/minmem.hpp"
#include "core/postorder.hpp"
#include "multifrontal/out_of_core.hpp"
#include "order/ordering.hpp"
#include "sparse/generators.hpp"
#include "support/prng.hpp"
#include "symbolic/assembly_tree.hpp"
#include "test_util.hpp"

namespace treemem {
namespace {

struct OocSetup {
  SymmetricMatrix matrix;
  AssemblyTree assembly;
  Traversal out_tree_order;  // MinMem's order (out-tree direction)
  Weight floor = 0;
  Weight peak = 0;
};

OocSetup make_setup(const SparsePattern& raw, std::uint64_t seed, Index relax) {
  const SparsePattern sym = symmetrize(raw);
  const SymmetricMatrix a = make_spd_matrix(sym, seed);
  const SymmetricMatrix permuted = a.permuted(min_degree_order(sym));
  AssemblyTreeOptions options;
  options.relax = relax;
  AssemblyTree assembly = build_assembly_tree(permuted.pattern(), options);
  const MinMemResult mm = minmem_optimal(assembly.tree);
  OocSetup setup{permuted, std::move(assembly), mm.order, 0, mm.peak};
  setup.floor = std::max(setup.assembly.tree.max_mem_req(),
                         setup.assembly.tree.file_size(setup.assembly.tree.root()));
  return setup;
}

class OutOfCoreSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OutOfCoreSweep, ExecutesPlansWithinBudgetAndStaysExact) {
  const std::uint64_t seed = GetParam();
  for (const Index relax : {0, 2}) {
    const OocSetup setup = make_setup(gen::grid2d(8, 8), seed, relax);
    if (setup.floor >= setup.peak) {
      continue;
    }
    for (int step = 0; step <= 2; ++step) {
      const Weight budget =
          setup.floor + (setup.peak - setup.floor) * step / 3;
      const MinIoResult plan =
          minio_heuristic(setup.assembly.tree, setup.out_tree_order, budget,
                          EvictionPolicy::kFirstFit);
      ASSERT_TRUE(plan.feasible);
      const OutOfCoreRunResult run = multifrontal_cholesky_out_of_core(
          setup.matrix, setup.assembly, plan.schedule, budget);
      EXPECT_LE(run.peak_live_entries, budget)
          << "seed=" << seed << " relax=" << relax << " M=" << budget;
      // Real spilled blocks are never larger than the model's files.
      EXPECT_LE(run.entries_spilled, plan.io_volume);
      if (relax == 0) {
        // Perfect supernodes: model file sizes are exact block sizes.
        EXPECT_EQ(run.entries_spilled, plan.io_volume);
        EXPECT_EQ(run.spill_events, plan.files_written);
      }
      EXPECT_LT(relative_residual(setup.matrix, run.factor), 1e-12);
      EXPECT_GT(run.estimated_io_s, 0.0);
    }
  }
}

TEST_P(OutOfCoreSweep, NoWritesMeansNoSpills) {
  const std::uint64_t seed = GetParam();
  const OocSetup setup = make_setup(gen::grid2d(6, 6), seed, 1);
  IoSchedule in_core;
  in_core.order = setup.out_tree_order;
  const OutOfCoreRunResult run = multifrontal_cholesky_out_of_core(
      setup.matrix, setup.assembly, in_core, setup.peak);
  EXPECT_EQ(run.entries_spilled, 0);
  EXPECT_EQ(run.spill_events, 0);
  EXPECT_EQ(run.estimated_io_s, 0.0);
  EXPECT_LE(run.peak_live_entries, setup.peak);
  EXPECT_LT(relative_residual(setup.matrix, run.factor), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OutOfCoreSweep,
                         ::testing::Range<std::uint64_t>(1, 7));

TEST(OutOfCore, RejectsInfeasibleSchedules) {
  const OocSetup setup = make_setup(gen::grid2d(5, 5), 3, 1);
  IoSchedule plan;
  plan.order = setup.out_tree_order;
  // A budget below the floor cannot pass Algorithm 2.
  EXPECT_THROW(multifrontal_cholesky_out_of_core(setup.matrix, setup.assembly,
                                                 plan, setup.floor - 1),
               Error);
}

TEST(OutOfCore, SpillsReduceThePeakBelowTheInCoreRun) {
  // 8x8 with relax=2 has an out-of-core regime (floor < peak); relax=0
  // collapses this particular tree to floor == peak.
  const OocSetup setup = make_setup(gen::grid2d(8, 8), 11, 2);
  ASSERT_LT(setup.floor, setup.peak);
  // In-core reference peak (same traversal, no spills).
  IoSchedule in_core;
  in_core.order = setup.out_tree_order;
  const OutOfCoreRunResult full = multifrontal_cholesky_out_of_core(
      setup.matrix, setup.assembly, in_core, setup.peak);

  const Weight budget = (setup.floor + setup.peak) / 2;
  const MinIoResult plan = minio_heuristic(
      setup.assembly.tree, setup.out_tree_order, budget,
      EvictionPolicy::kFirstFit);
  ASSERT_TRUE(plan.feasible);
  ASSERT_GT(plan.io_volume, 0);
  const OutOfCoreRunResult constrained = multifrontal_cholesky_out_of_core(
      setup.matrix, setup.assembly, plan.schedule, budget);
  EXPECT_LT(constrained.peak_live_entries, full.peak_live_entries);
}

TEST(OutOfCore, FactorAndFlopsMatchTheSerialEngineOnTheSamePlan) {
  const OocSetup setup = make_setup(gen::grid2d(8, 8), 11, 2);
  const Weight budget = (setup.floor + setup.peak) / 2;
  const MinIoResult plan = minio_heuristic(
      setup.assembly.tree, setup.out_tree_order, budget,
      EvictionPolicy::kFirstFit);
  ASSERT_TRUE(plan.feasible);
  ASSERT_GT(plan.io_volume, 0);  // spills really happen
  const OutOfCoreRunResult run = multifrontal_cholesky_out_of_core(
      setup.matrix, setup.assembly, plan.schedule, budget);
  // The scalar reference along the same traversal: spilling moves blocks,
  // never reorders a floating-point operation.
  const MultifrontalResult serial = multifrontal_cholesky(
      setup.matrix, setup.assembly, reverse_traversal(plan.schedule.order),
      KernelConfig{.block_size = 1, .workers = 1});
  EXPECT_GT(run.flops, 0);
  EXPECT_EQ(run.flops, serial.flops);
  EXPECT_TRUE(
      testing::bitwise_equal(run.factor.values, serial.factor.values));
}

}  // namespace
}  // namespace treemem
