// The supernodal factor and its solve: every engine writes the same panels,
// their solves meet the residual contract for every amalgamation, a blocked
// multi-RHS solve matches per-column solves bit for bit on both the indexed
// and the gathered path, and an entry inside a relaxed front is factored
// exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

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

SymmetricMatrix nd_matrix(const SparsePattern& raw, std::uint64_t seed) {
  const SparsePattern sym = symmetrize(raw);
  return make_spd_matrix(sym, seed).permuted(nested_dissection_order(sym));
}

std::vector<double> random_vector(std::size_t n, Prng& prng) {
  std::vector<double> v(n);
  for (double& x : v) {
    x = prng.uniform_real(-1.0, 1.0);
  }
  return v;
}

double solve_residual(const SymmetricMatrix& a, const CholeskyFactor& factor,
                      const std::vector<double>& b) {
  return relative_residual(a, solve_with_factor(factor, b), b);
}

TEST(SupernodalSolve, ResidualOnEveryEngineAndAmalgamation) {
  const SymmetricMatrix a = nd_matrix(gen::grid3d(7, 7, 7), 5);
  Prng prng(41);
  const std::vector<double> b =
      random_vector(static_cast<std::size_t>(a.size()), prng);
  for (const Index relax : {0, 1, 4, 16}) {
    SCOPED_TRACE("relax=" + std::to_string(relax));
    AssemblyTreeOptions options;
    options.relax = relax;
    const AssemblyTree assembly = build_assembly_tree(a.pattern(), options);
    const MinMemResult minmem = minmem_optimal(assembly.tree);

    const MultifrontalResult serial = multifrontal_cholesky(
        a, assembly, reverse_traversal(minmem.order));
    EXPECT_EQ(serial.factor.values.size(),
              static_cast<std::size_t>(assembly.fronts->panel_entries()));
    EXPECT_LE(solve_residual(a, serial.factor, b), 1e-10);

    for (const int workers : {1, 2, 4}) {
      ParallelFactorOptions parallel;
      parallel.workers = workers;
      const ParallelFactorResult run = factor_parallel(a, assembly, parallel);
      ASSERT_TRUE(run.feasible) << "w=" << workers;
      EXPECT_TRUE(
          testing::bitwise_equal(run.factor.values, serial.factor.values))
          << "w=" << workers;
      EXPECT_LE(run.measured_peak_entries, run.modeled_peak_entries);
      EXPECT_LE(solve_residual(a, run.factor, b), 1e-10) << "w=" << workers;
    }

    const Weight floor = std::max(
        assembly.tree.max_mem_req(),
        assembly.tree.file_size(assembly.tree.root()));
    const Weight budget = (floor + minmem.peak) / 2;
    const MinIoResult plan = minio_heuristic(
        assembly.tree, minmem.order, budget, EvictionPolicy::kFirstFit);
    ASSERT_TRUE(plan.feasible);
    const OutOfCoreRunResult ooc =
        multifrontal_cholesky_out_of_core(a, assembly, plan.schedule, budget);
    EXPECT_TRUE(
        testing::bitwise_equal(ooc.factor.values, serial.factor.values));
    EXPECT_LE(solve_residual(a, ooc.factor, b), 1e-10);
  }
}

TEST(SupernodalSolve, PanelsPadOnlyRelaxedFronts) {
  const SymmetricMatrix a = nd_matrix(gen::grid2d(12, 12), 9);
  const std::int64_t fill = testing::column_merge_factor(a.pattern()).nnz();
  // Fundamental supernodes are dense already: the panels hold L exactly.
  const AssemblyTree perfect = build_assembly_tree(a.pattern(), {0, true});
  EXPECT_EQ(perfect.fronts->factor_nnz, fill);
  EXPECT_EQ(perfect.fronts->panel_entries(), fill);
  // Relaxed fronts store their explicit zeros too.
  const AssemblyTree relaxed = build_assembly_tree(a.pattern(), {16, true});
  EXPECT_EQ(relaxed.fronts->factor_nnz, fill);
  EXPECT_GT(relaxed.fronts->panel_entries(), fill);
}

TEST(SupernodalSolve, BlockedSolveMatchesPerColumnBitForBit) {
  const SymmetricMatrix a = nd_matrix(gen::grid3d(8, 8, 8, true), 3);
  const AssemblyTree assembly = build_assembly_tree(a.pattern());
  const MultifrontalResult run = multifrontal_cholesky(
      a, assembly, reverse_traversal(minmem_optimal(assembly.tree).order));
  // Both paths of the sweep must be on the line: indexed small fronts and
  // gathered large ones.
  auto smallest = static_cast<std::size_t>(a.size());
  std::size_t largest = 0;
  for (NodeId s = 0; s < assembly.tree.size(); ++s) {
    if (!assembly.fronts->members(s).empty()) {
      smallest = std::min(smallest, assembly.fronts->front_size(s));
      largest = std::max(largest, assembly.fronts->front_size(s));
    }
  }
  ASSERT_LT(smallest, 16u);
  ASSERT_GT(largest, 100u);

  const auto n = static_cast<std::size_t>(a.size());
  constexpr std::size_t kRhs = 5;
  Prng prng(8);
  std::vector<double> block(n * kRhs);
  for (double& x : block) {
    x = prng.uniform_real(-1.0, 1.0);
  }
  const std::vector<double> b = block;
  solve_with_factor(run.factor, std::span<double>(block), kRhs);
  for (std::size_t c = 0; c < kRhs; ++c) {
    const auto first = b.begin() + static_cast<std::ptrdiff_t>(c * n);
    const std::vector<double> column(first,
                                     first + static_cast<std::ptrdiff_t>(n));
    const std::vector<double> x = solve_with_factor(run.factor, column);
    EXPECT_TRUE(testing::bitwise_equal(
        std::span<const double>(block).subspan(c * n, n), x))
        << "column " << c;
    EXPECT_LE(relative_residual(a, x, column), 1e-10);
  }
  EXPECT_THROW(solve_with_factor(run.factor, std::span<double>(block), 4),
               Error);
}

TEST(SupernodalSolve, EntryInsideARelaxedFrontIsFactoredExactly) {
  const SymmetricMatrix a = nd_matrix(gen::grid2d(8, 8), 12);
  const AssemblyTree assembly = build_assembly_tree(a.pattern(), {16, true});
  const SparsePattern fill = testing::column_merge_factor(a.pattern());
  // A padded slot: front row r of the supernode of column j, r > j, where
  // L(r, j) is structurally zero.
  Index pad_row = -1, pad_col = -1;
  for (NodeId s = 0; s < assembly.tree.size() && pad_row < 0; ++s) {
    const auto members = assembly.fronts->members(s);
    const auto rows = assembly.fronts->rows(s);
    for (std::size_t k = 0; k < members.size() && pad_row < 0; ++k) {
      for (std::size_t i = k + 1; i < rows.size(); ++i) {
        if (!fill.has_entry(rows[i], members[k])) {
          pad_row = rows[i];
          pad_col = members[k];
          break;
        }
      }
    }
  }
  ASSERT_GE(pad_row, 0) << "no relaxed front carries padding";

  // The same matrix plus the entry (pad_row, pad_col) and its mirror,
  // factored on the tree analyzed without it.
  std::vector<std::pair<Index, Index>> entries{{pad_row, pad_col},
                                               {pad_col, pad_row}};
  for (Index j = 0; j < a.size(); ++j) {
    for (const Index r : a.pattern().column(j)) {
      entries.emplace_back(r, j);
    }
  }
  const SymmetricMatrix widened = make_spd_matrix(
      SparsePattern::from_coo(a.size(), a.size(), std::move(entries)), 12);
  const MultifrontalResult run = multifrontal_cholesky(
      widened, assembly,
      reverse_traversal(minmem_optimal(assembly.tree).order));
  EXPECT_LT(relative_residual(widened, run.factor), 1e-12);
}

}  // namespace
}  // namespace treemem
