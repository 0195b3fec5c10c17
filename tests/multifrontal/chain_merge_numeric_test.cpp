// The numeric engines on chain-merged assembly trees (the default of
// build_assembly_tree for relax > 0): the factor is bit-identical across
// the serial driver, the threaded engine at w ∈ {1, 2, 4} and the
// out-of-core engine, and measured memory stays within the Eq. 1 model.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/check.hpp"
#include "core/minio.hpp"
#include "core/minmem.hpp"
#include "multifrontal/numeric.hpp"
#include "multifrontal/numeric_parallel.hpp"
#include "multifrontal/out_of_core.hpp"
#include "order/ordering.hpp"
#include "sparse/generators.hpp"
#include "support/prng.hpp"
#include "symbolic/assembly_tree.hpp"
#include "test_util.hpp"

namespace treemem {
namespace {

void expect_engines_agree(const SparsePattern& raw, const std::string& name) {
  SCOPED_TRACE(name);
  const SparsePattern sym = symmetrize(raw);
  const SymmetricMatrix a =
      make_spd_matrix(sym, 18).permuted(nested_dissection_order(sym));
  const AssemblyTree assembly = build_assembly_tree(a.pattern());
  AssemblyTreeOptions unmerged;
  unmerged.merge_chains = false;
  ASSERT_LT(assembly.tree.size(),
            build_assembly_tree(a.pattern(), unmerged).tree.size())
      << "no chain merged: the case tests nothing";

  const MinMemResult minmem = minmem_optimal(assembly.tree);
  const Traversal bottom_up = reverse_traversal(minmem.order);
  const MultifrontalResult serial = multifrontal_cholesky(
      a, assembly, bottom_up, KernelConfig{.block_size = 1, .workers = 1});
  EXPECT_LT(relative_residual(a, serial.factor), 1e-12);
  EXPECT_LE(serial.peak_live_entries,
            in_tree_traversal_peak(assembly.tree, bottom_up));

  for (const int workers : {1, 2, 4}) {
    ParallelFactorOptions options;
    options.workers = workers;
    const ParallelFactorResult run = factor_parallel(a, assembly, options);
    ASSERT_TRUE(run.feasible) << "w=" << workers;
    EXPECT_TRUE(
        testing::bitwise_equal(run.factor.values, serial.factor.values))
        << "w=" << workers;
    EXPECT_EQ(run.flops, serial.flops);
    EXPECT_LE(run.measured_peak_entries, run.modeled_peak_entries);
  }

  const Weight floor = std::max(assembly.tree.max_mem_req(),
                                assembly.tree.file_size(assembly.tree.root()));
  const Weight budget = (floor + minmem.peak) / 2;
  const MinIoResult plan = minio_heuristic(assembly.tree, minmem.order,
                                           budget, EvictionPolicy::kFirstFit);
  ASSERT_TRUE(plan.feasible);
  const OutOfCoreRunResult ooc =
      multifrontal_cholesky_out_of_core(a, assembly, plan.schedule, budget);
  EXPECT_LE(ooc.peak_live_entries, budget);
  EXPECT_LE(ooc.entries_spilled, plan.io_volume);
  EXPECT_TRUE(testing::bitwise_equal(ooc.factor.values, serial.factor.values));
}

TEST(ChainMergeNumeric, EnginesBitIdenticalOnGrid3dNd) {
  expect_engines_agree(gen::grid3d(10, 10, 10, /*twentyseven_point=*/true),
                       "grid3d27 10^3");
}

TEST(ChainMergeNumeric, EnginesBitIdenticalOnBlockTridiagonal) {
  Prng structure(20110516);
  expect_engines_agree(gen::block_tridiagonal(32, 12, 0.25, structure),
                       "blocktri 32x12");
}

}  // namespace
}  // namespace treemem
