// Tests for the symbolic factorization substrate: elimination trees,
// postorder, column counts (validated against the explicit symbolic
// factor), amalgamation, assembly-tree weights and the front structure.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <tuple>

#include "order/ordering.hpp"
#include "sparse/generators.hpp"
#include "sparse/pattern.hpp"
#include "support/prng.hpp"
#include "symbolic/assembly_tree.hpp"
#include "symbolic/symbolic.hpp"

namespace treemem {
namespace {

/// Dense reference: Cholesky fill by explicit elimination on a boolean
/// matrix. Returns the lower-triangular pattern of L (including diagonal).
std::vector<std::vector<char>> dense_fill(const SparsePattern& a) {
  const Index n = a.cols();
  std::vector<std::vector<char>> m(
      static_cast<std::size_t>(n),
      std::vector<char>(static_cast<std::size_t>(n), 0));
  for (Index j = 0; j < n; ++j) {
    for (const Index i : a.column(j)) {
      m[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = 1;
    }
  }
  for (Index k = 0; k < n; ++k) {
    for (Index i = k + 1; i < n; ++i) {
      if (!m[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)]) {
        continue;
      }
      for (Index j = k + 1; j <= i; ++j) {
        if (m[static_cast<std::size_t>(j)][static_cast<std::size_t>(k)]) {
          m[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = 1;
        }
      }
    }
  }
  return m;
}

SparsePattern random_spd_pattern(std::uint64_t seed, Index n, double density) {
  Prng prng(seed);
  return symmetrize(gen::random_symmetric(n, density, prng));
}

class SymbolicSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SymbolicSweep, EtreeMatchesDenseDefinition) {
  // parent(j) = min { i > j : L_ij != 0 } per the dense fill.
  const std::uint64_t seed = GetParam();
  for (const Index n : {5, 12, 25}) {
    const SparsePattern a = random_spd_pattern(seed * 37 + n, n, 2.5);
    const auto fill = dense_fill(a);
    const std::vector<Index> parent = elimination_tree(a);
    for (Index j = 0; j < n; ++j) {
      Index expected = -1;
      for (Index i = j + 1; i < n; ++i) {
        if (fill[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]) {
          expected = i;
          break;
        }
      }
      EXPECT_EQ(parent[static_cast<std::size_t>(j)], expected)
          << "seed=" << seed << " n=" << n << " col=" << j;
    }
  }
}

TEST_P(SymbolicSweep, ColumnCountsMatchDenseFill) {
  const std::uint64_t seed = GetParam();
  for (const Index n : {5, 12, 25, 60}) {
    const SparsePattern a = random_spd_pattern(seed * 53 + n, n, 3.0);
    const auto fill = dense_fill(a);
    const std::vector<Index> parent = elimination_tree(a);
    const std::vector<Index> counts = column_counts(a, parent);
    for (Index j = 0; j < n; ++j) {
      Index expected = 0;
      for (Index i = j; i < n; ++i) {
        expected += fill[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      }
      EXPECT_EQ(counts[static_cast<std::size_t>(j)], expected)
          << "seed=" << seed << " n=" << n << " col=" << j;
    }
  }
}

TEST_P(SymbolicSweep, SymbolicCholeskyMatchesDenseFill) {
  const std::uint64_t seed = GetParam();
  for (const Index n : {5, 12, 30}) {
    const SparsePattern a = random_spd_pattern(seed * 71 + n, n, 3.5);
    const auto fill = dense_fill(a);
    const SparsePattern l = symbolic_cholesky(a);
    for (Index j = 0; j < n; ++j) {
      for (Index i = 0; i < n; ++i) {
        const bool expected =
            i >= j && fill[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
        EXPECT_EQ(l.has_entry(i, j), expected)
            << "seed=" << seed << " n=" << n << " (" << i << "," << j << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymbolicSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(Symbolic, EtreeOfTridiagonalIsAChain) {
  Prng prng(1);
  const SparsePattern a = symmetrize(gen::banded(8, 1, 1.0, prng));
  const std::vector<Index> parent = elimination_tree(a);
  for (Index j = 0; j + 1 < 8; ++j) {
    EXPECT_EQ(parent[static_cast<std::size_t>(j)], j + 1);
  }
  EXPECT_EQ(parent[7], -1);
}

TEST(Symbolic, PostorderIsValidAndContiguous) {
  const SparsePattern a = symmetrize(gen::grid2d(6, 6));
  const std::vector<Index> parent = elimination_tree(a);
  const std::vector<Index> post = etree_postorder(parent);
  std::vector<Index> position(post.size());
  for (std::size_t k = 0; k < post.size(); ++k) {
    position[static_cast<std::size_t>(post[k])] = static_cast<Index>(k);
  }
  for (std::size_t j = 0; j < parent.size(); ++j) {
    if (parent[j] != -1) {
      EXPECT_LT(position[j], position[static_cast<std::size_t>(parent[j])]);
    }
  }
}

TEST(Symbolic, FactorNnzOnGrid) {
  const SparsePattern a = symmetrize(gen::grid2d(8, 8));
  const SparsePattern l = symbolic_cholesky(a);
  EXPECT_EQ(factor_nnz(a), l.nnz());
  EXPECT_GE(l.nnz(), a.nnz() / 2);  // at least the lower triangle of A
}

// ---------------------------------------------------------------------------
// Amalgamation
// ---------------------------------------------------------------------------

TEST(Amalgamation, PerfectMergesChainSupernode) {
  // A chain etree with counts decreasing by one at each parent is one
  // fundamental supernode: 0 <- 1 <- 2 with counts 3, 2, 1.
  const std::vector<Index> parent{1, 2, -1};
  const std::vector<Index> counts{3, 2, 1};
  AssemblyTreeOptions options;
  options.relax = 0;
  const AssemblyTree at = amalgamate(parent, counts, options);
  EXPECT_EQ(at.tree.size(), 1);
  EXPECT_EQ(at.eta[0], 3);
  EXPECT_EQ(at.mu[0], 1);  // mu of the top column
  // Frontal weights: eta^2 + 2*eta*(mu-1) = 9, CB = 0.
  EXPECT_EQ(at.tree.work_size(0), 9);
  EXPECT_EQ(at.tree.file_size(0), 0);
}

TEST(Amalgamation, NoMergeWhenCountsDoNotChain) {
  const std::vector<Index> parent{1, 2, -1};
  const std::vector<Index> counts{3, 1, 1};  // 1 != 3-1: no perfect merge
  AssemblyTreeOptions options;
  options.relax = 0;
  const AssemblyTree at = amalgamate(parent, counts, options);
  EXPECT_EQ(at.tree.size(), 3);
  // Node weights follow the formulas with eta=1.
  for (NodeId i = 0; i < at.tree.size(); ++i) {
    const Weight mu = at.mu[static_cast<std::size_t>(i)];
    EXPECT_EQ(at.tree.work_size(i), 1 + 2 * (mu - 1));
    EXPECT_EQ(at.tree.file_size(i), (mu - 1) * (mu - 1));
  }
}

TEST(Amalgamation, RelaxedMergesDensestChild) {
  // Root 4 with children 1 (subtree {0,1}) and 3 (subtree {2,3}).
  // Counts make child 3 denser than child 1.
  const std::vector<Index> parent{1, 4, 3, 4, -1};
  const std::vector<Index> counts{2, 4, 2, 6, 1};
  AssemblyTreeOptions options;
  options.relax = 1;
  options.perfect = false;
  const AssemblyTree at = amalgamate(parent, counts, options);
  // Supernode of column 4 should have absorbed column 3 (mu=6 > mu=4).
  EXPECT_EQ(at.supernode_of[4], at.supernode_of[3]);
  EXPECT_NE(at.supernode_of[4], at.supernode_of[1]);
}

TEST(Amalgamation, VirtualRootForForests) {
  // Two independent chains: columns {0,1} and {2,3}.
  const std::vector<Index> parent{1, -1, 3, -1};
  const std::vector<Index> counts{2, 1, 2, 1};
  AssemblyTreeOptions options;
  options.relax = 0;
  options.perfect = false;
  const AssemblyTree at = amalgamate(parent, counts, options);
  EXPECT_TRUE(at.has_virtual_root);
  EXPECT_EQ(at.tree.num_children(at.tree.root()), 2);
  EXPECT_EQ(at.tree.file_size(at.tree.root()), 0);
  EXPECT_EQ(at.tree.work_size(at.tree.root()), 0);
}

TEST(Amalgamation, HigherRelaxNeverGrowsTree) {
  const SparsePattern a = symmetrize(gen::grid2d(12, 12));
  Index last = std::numeric_limits<Index>::max();
  for (const Index relax : {0, 1, 2, 4, 16}) {
    AssemblyTreeOptions options;
    options.relax = relax;
    const AssemblyTree at = build_assembly_tree(a, options);
    EXPECT_LE(at.tree.size(), last) << "relax=" << relax;
    last = at.tree.size();
    // Every column maps to a live supernode.
    for (Index j = 0; j < a.cols(); ++j) {
      ASSERT_NE(at.supernode_of[static_cast<std::size_t>(j)], kNoNode);
    }
    // Eta sums to the matrix dimension.
    const Weight eta_sum =
        std::accumulate(at.eta.begin(), at.eta.end(), Weight{0});
    EXPECT_EQ(eta_sum, a.cols());
  }
}

TEST(Amalgamation, WeightsFollowPaperFormulas) {
  const SparsePattern a = symmetrize(gen::grid2d(9, 9));
  AssemblyTreeOptions options;
  options.relax = 4;
  const AssemblyTree at = build_assembly_tree(a, options);
  for (NodeId i = 0; i < at.tree.size(); ++i) {
    if (at.has_virtual_root && i == at.tree.root()) {
      continue;
    }
    const Weight eta = at.eta[static_cast<std::size_t>(i)];
    const Weight mu = at.mu[static_cast<std::size_t>(i)];
    ASSERT_GE(eta, 1);
    ASSERT_GE(mu, 1);
    EXPECT_EQ(at.tree.work_size(i), eta * eta + 2 * eta * (mu - 1));
    EXPECT_EQ(at.tree.file_size(i), (mu - 1) * (mu - 1));
  }
}

// ---------------------------------------------------------------------------
// Front structure
// ---------------------------------------------------------------------------

/// Oracle: the pattern of L by column merging, L(:,j) = lower part of
/// A(:,j) ∪ the union over etree children c of L(:,c) \ {c}.
SparsePattern column_merge_factor(const SparsePattern& a) {
  const Index n = a.cols();
  const std::vector<Index> parent = elimination_tree(a);
  std::vector<std::vector<Index>> cols(static_cast<std::size_t>(n));
  for (const Index j : etree_postorder(parent)) {
    auto& col = cols[static_cast<std::size_t>(j)];
    for (const Index i : a.column(j)) {
      if (i >= j) {
        col.push_back(i);
      }
    }
    for (Index c = 0; c < j; ++c) {
      if (parent[static_cast<std::size_t>(c)] == j) {
        const auto& child = cols[static_cast<std::size_t>(c)];
        col.insert(col.end(), child.begin() + 1, child.end());
      }
    }
    std::sort(col.begin(), col.end());
    col.erase(std::unique(col.begin(), col.end()), col.end());
  }
  std::vector<std::int64_t> col_ptr{0};
  std::vector<Index> row_idx;
  for (const auto& col : cols) {
    row_idx.insert(row_idx.end(), col.begin(), col.end());
    col_ptr.push_back(static_cast<std::int64_t>(row_idx.size()));
  }
  return SparsePattern(n, n, std::move(col_ptr), std::move(row_idx));
}

enum class Family { kGrid2d, kGrid3d, kRandom, kBlockTri, kHoles };
enum class Order { kNatural, kMinDegree, kNestedDissection };

SparsePattern family_pattern(Family family) {
  Prng prng(static_cast<std::uint64_t>(family) + 11);
  switch (family) {
    case Family::kGrid2d:
      return symmetrize(gen::grid2d(13, 11));
    case Family::kGrid3d:
      return symmetrize(gen::grid3d(5, 5, 4));
    case Family::kRandom:
      return symmetrize(gen::random_symmetric(140, 2.5, prng));
    case Family::kBlockTri:
      return symmetrize(gen::block_tridiagonal(9, 12, 0.25, prng));
    case Family::kHoles:  // disconnected: exercises the virtual root
      return symmetrize(gen::grid2d_with_holes(14, 12, 0.3, prng));
  }
  return {};
}

std::vector<Index> family_order(Order order, const SparsePattern& a) {
  switch (order) {
    case Order::kNatural:
      return natural_order(a.cols());
    case Order::kMinDegree:
      return min_degree_order(a);
    case Order::kNestedDissection:
      return nested_dissection_order(a);
  }
  return {};
}

class FrontStructureSweep
    : public ::testing::TestWithParam<std::tuple<Family, Order>> {};

// 5 pattern families x 3 orderings (the parameters) x relax {0,1,2,4,16}
// x perfect on/off (the loops): 150 assembly trees.
TEST_P(FrontStructureSweep, MatchesColumnMergeOracle) {
  const auto [family, order] = GetParam();
  const SparsePattern raw = family_pattern(family);
  const SparsePattern a = permute_symmetric(raw, family_order(order, raw));
  const SparsePattern oracle = column_merge_factor(a);
  const SparsePattern fill = symbolic_cholesky(a);
  ASSERT_EQ(fill.col_ptr(), oracle.col_ptr());
  ASSERT_EQ(fill.row_idx(), oracle.row_idx());

  std::vector<Index> rows;
  std::vector<Index> expected;
  for (const Index relax : {0, 1, 2, 4, 16}) {
    for (const bool perfect : {true, false}) {
      SCOPED_TRACE("relax=" + std::to_string(relax) +
                   " perfect=" + std::to_string(perfect));
      const AssemblyTree at = build_assembly_tree(a, {relax, perfect});
      ASSERT_NE(at.fronts, nullptr);
      const FrontStructure& fronts = *at.fronts;
      ASSERT_EQ(fronts.factor.col_ptr(), oracle.col_ptr());
      ASSERT_EQ(fronts.factor.row_idx(), oracle.row_idx());
      for (NodeId s = 0; s < at.tree.size(); ++s) {
        // The members are the columns mapped to s, ascending.
        expected.clear();
        for (Index j = 0; j < a.cols(); ++j) {
          if (at.supernode_of[static_cast<std::size_t>(j)] == s) {
            expected.push_back(j);
          }
        }
        const auto members = fronts.members(s);
        ASSERT_EQ(std::vector<Index>(members.begin(), members.end()),
                  expected)
            << "node " << s;
        // The front rows the engines form, members ++ update_rows, are the
        // sorted union of the member columns.
        for (const Index j : members) {
          const auto col = oracle.column(j);
          expected.insert(expected.end(), col.begin(), col.end());
        }
        std::sort(expected.begin(), expected.end());
        expected.erase(std::unique(expected.begin(), expected.end()),
                       expected.end());
        const auto update_rows = fronts.update_rows(s);
        rows.assign(members.begin(), members.end());
        rows.insert(rows.end(), update_rows.begin(), update_rows.end());
        ASSERT_EQ(rows, expected) << "node " << s;
        ASSERT_EQ(fronts.front_size(s), expected.size());
      }
    }
  }
}

std::string sweep_case_name(
    const ::testing::TestParamInfo<std::tuple<Family, Order>>& info) {
  static const char* const kFamilies[] = {"grid2d", "grid3d", "random",
                                          "blocktri", "holes"};
  static const char* const kOrders[] = {"natural", "mindeg", "nd"};
  return std::string(kFamilies[static_cast<int>(std::get<0>(info.param))]) +
         "_" + kOrders[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    Families, FrontStructureSweep,
    ::testing::Combine(::testing::Values(Family::kGrid2d, Family::kGrid3d,
                                         Family::kRandom, Family::kBlockTri,
                                         Family::kHoles),
                       ::testing::Values(Order::kNatural, Order::kMinDegree,
                                         Order::kNestedDissection)),
    sweep_case_name);

TEST(FrontStructure, AmalgamateOutputCarriesNone) {
  const AssemblyTree at = amalgamate({1, 2, -1}, {3, 2, 1});
  EXPECT_EQ(at.fronts, nullptr);
}

TEST(FrontStructure, RejectsDisconnectedSupernode) {
  // Path 0 - 1 - 2: the etree is the chain 0 <- 1 <- 2. Put columns 0 and 2
  // in one supernode and 1 in another: no longer a connected subtree.
  const SparsePattern a = SparsePattern::from_coo(
      3, 3, {{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 1}, {1, 2}, {2, 2}});
  AssemblyTree at = build_assembly_tree(a, {0, false});
  ASSERT_EQ(at.tree.size(), 3);
  EXPECT_NE(build_front_structure(a, at), nullptr);  // untouched: valid
  at.supernode_of[2] = at.supernode_of[0];
  EXPECT_THROW(build_front_structure(a, at), Error);
}

}  // namespace
}  // namespace treemem
