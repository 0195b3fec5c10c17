// Tests for the chain-merge pass of amalgamate (symbolic/assembly_tree.hpp):
// the two 10% bounds on handcrafted chains, and on real patterns that the
// merged tree is the unmerged one with only-child links joined — a
// connected-subtree partition with the same pattern of L.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "order/ordering.hpp"
#include "perf/corpus.hpp"
#include "sparse/generators.hpp"
#include "support/prng.hpp"
#include "symbolic/assembly_tree.hpp"
#include "symbolic/symbolic.hpp"
#include "test_util.hpp"

namespace treemem {
namespace {

/// Column counts of a perfect chain of `eta` columns whose top has count
/// `mu`: mu + eta − 1, ..., mu + 1, mu.
void append_supernode(std::vector<Index>& counts, Index eta, Index mu) {
  for (Index k = eta - 1; k >= 0; --k) {
    counts.push_back(mu + k);
  }
}

/// Chain etree 0 <- 1 <- ... <- n−1 (column j's parent is j + 1).
std::vector<Index> chain_parents(std::size_t n) {
  std::vector<Index> parent(n);
  std::iota(parent.begin(), parent.end(), Index{1});
  parent.back() = -1;
  return parent;
}

/// A child supernode of `eta_c` columns below a root supernode of 40
/// columns whose front (order 40) lacks `new_rows` rows of the child's
/// contribution block: µ_c = 41 − new_rows. Relax 1 leaves both alone (each
/// already holds more than one column) and the link is not perfect, so only
/// the chain merge can join them. Returns the number of tree nodes.
NodeId two_link_chain(Index eta_c, Index new_rows, bool merge_chains = true,
                      Index relax = 1) {
  std::vector<Index> counts;
  append_supernode(counts, eta_c, 41 - new_rows);
  append_supernode(counts, 40, 1);
  AssemblyTreeOptions options;
  options.relax = relax;
  options.merge_chains = merge_chains;
  const AssemblyTree at =
      amalgamate(chain_parents(counts.size()), counts, options);
  const Weight eta_sum =
      std::accumulate(at.eta.begin(), at.eta.end(), Weight{0});
  EXPECT_EQ(eta_sum, static_cast<Weight>(counts.size()));
  return at.tree.size();
}

TEST(ChainMerge, MergesExactlyAtBothBounds) {
  // Parent order 40: both bounds are 4 rows.
  EXPECT_EQ(two_link_chain(4, 4), 1);  // at both bounds
  EXPECT_EQ(two_link_chain(4, 5), 2);  // one new row past the share bound
  EXPECT_EQ(two_link_chain(5, 4), 2);  // one pivot past the growth cap
  EXPECT_EQ(two_link_chain(1, 1), 1);
}

TEST(ChainMerge, OffWithoutRelaxOrWhenDisabled) {
  EXPECT_EQ(two_link_chain(4, 4, /*merge_chains=*/false), 2);
  EXPECT_EQ(two_link_chain(4, 4, /*merge_chains=*/true, /*relax=*/0), 2);
}

TEST(ChainMerge, CapCountsEtaAccumulatedDownTheChain) {
  // d (η_d) -> c (2 columns, µ_c = 37, order 38) -> root p (order 40). d
  // joins c (3 new rows, η_d ≤ 3); c then carries 2 + η_d pivots into p,
  // which the cap admits only up to 4.
  for (const Index eta_d : {2, 3}) {
    std::vector<Index> counts;
    append_supernode(counts, eta_d, 36);
    append_supernode(counts, 2, 37);
    append_supernode(counts, 40, 1);
    const AssemblyTree at = amalgamate(chain_parents(counts.size()), counts);
    EXPECT_EQ(at.tree.size(), eta_d == 2 ? 1 : 2) << "eta_d=" << eta_d;
    EXPECT_EQ(at.supernode_of.front(),
              at.supernode_of[static_cast<std::size_t>(eta_d)]);
  }
}

TEST(ChainMerge, OnlyChildrenJoin) {
  // Two children (each 4 columns, µ = 37) under one 40-column root: each
  // would pass both bounds alone, but neither is an only child.
  std::vector<Index> counts;
  append_supernode(counts, 4, 37);
  append_supernode(counts, 4, 37);
  append_supernode(counts, 40, 1);
  std::vector<Index> parent = chain_parents(counts.size());
  parent[3] = 8;  // the first child's top hangs off the root's bottom
  const AssemblyTree at = amalgamate(parent, counts);
  EXPECT_EQ(at.tree.size(), 3);
}

/// Checks the merged tree of `a` (permuted) against the unmerged one at
/// `relax`: the same nnz(L), merged front rows that are members ++ L(:, top)
/// below the diagonal, a valid front structure for amalgamate's
/// output, every unmerged supernode inside one merged supernode, and a
/// merged link only where the parent had no other child. Returns the
/// number of supernodes the merge removed.
NodeId expect_chain_merge_refines(const SparsePattern& a, Index relax) {
  SCOPED_TRACE("relax=" + std::to_string(relax));
  AssemblyTreeOptions off;
  off.relax = relax;
  off.merge_chains = false;
  AssemblyTreeOptions on = off;
  on.merge_chains = true;
  const AssemblyTree base = build_assembly_tree(a, off);
  const AssemblyTree merged = build_assembly_tree(a, on);
  const SparsePattern fill = testing::column_merge_factor(a);
  EXPECT_EQ(merged.fronts->factor_nnz, fill.nnz());
  EXPECT_EQ(base.fronts->factor_nnz, fill.nnz());
  for (NodeId s = 0; s < merged.tree.size(); ++s) {
    const auto members = merged.fronts->members(s);
    std::vector<Index> expected(members.begin(), members.end());
    if (!members.empty()) {
      const auto below = fill.column(members.back()).subspan(1);
      expected.insert(expected.end(), below.begin(), below.end());
    }
    const auto rows = merged.fronts->rows(s);
    EXPECT_EQ(std::vector<Index>(rows.begin(), rows.end()), expected)
        << "node " << s;
  }

  const std::vector<Index> parent = elimination_tree(a);
  const AssemblyTree raw = amalgamate(parent, column_counts(a, parent), on);
  EXPECT_EQ(raw.supernode_of, merged.supernode_of);
  EXPECT_NO_THROW(build_front_structure(a, raw));

  std::vector<NodeId> merged_of(static_cast<std::size_t>(base.tree.size()),
                                kNoNode);
  if (base.has_virtual_root) {
    merged_of[0] = 0;
  }
  for (Index j = 0; j < a.cols(); ++j) {
    const auto b = static_cast<std::size_t>(
        base.supernode_of[static_cast<std::size_t>(j)]);
    const NodeId m = merged.supernode_of[static_cast<std::size_t>(j)];
    EXPECT_TRUE(merged_of[b] == kNoNode || merged_of[b] == m)
        << "unmerged supernode " << b << " split";
    merged_of[b] = m;
  }
  for (NodeId b = 0; b < base.tree.size(); ++b) {
    const NodeId p = base.tree.parent(b);
    if (p != kNoNode && merged_of[static_cast<std::size_t>(b)] ==
                            merged_of[static_cast<std::size_t>(p)]) {
      EXPECT_EQ(base.tree.num_children(p), 1)
          << "supernode " << b << " merged into a parent with siblings";
    }
  }
  if (relax == 0) {
    EXPECT_EQ(merged.supernode_of, base.supernode_of);
    EXPECT_EQ(merged.tree.parents(), base.tree.parents());
  }
  return base.tree.size() - merged.tree.size();
}

TEST(ChainMerge, Grid3dNestedDissectionJoinsSeparatorChains) {
  const SparsePattern raw =
      gen::grid3d(10, 10, 10, /*twentyseven_point=*/true);
  const SparsePattern a =
      permute_symmetric(raw, nested_dissection_order(raw));
  NodeId removed = 0;
  for (const Index relax : {0, 1, 2, 4, 16}) {
    removed += expect_chain_merge_refines(a, relax);
  }
  EXPECT_GT(removed, 0);
}

TEST(ChainMerge, BlockTridiagonalAndCorpusPatterns) {
  Prng structure(20110516);
  std::vector<SparsePattern> patterns{
      gen::block_tridiagonal(32, 12, 0.25, structure)};
  for (CorpusMatrix& m : smallest_corpus_matrices({}, 8)) {
    patterns.push_back(std::move(m.pattern));
  }
  NodeId removed = 0;
  for (const SparsePattern& raw : patterns) {
    for (const bool nd : {false, true}) {
      const SparsePattern a = permute_symmetric(
          raw, nd ? nested_dissection_order(raw) : min_degree_order(raw));
      for (const Index relax : {0, 1, 4, 16}) {
        removed += expect_chain_merge_refines(a, relax);
      }
    }
  }
  EXPECT_GT(removed, 0);
}

}  // namespace
}  // namespace treemem
