// Tests for the ordering substrate: permutation validity, bandwidth/fill
// quality, determinism, pinned permutations, and the independence of nested
// dissection from its parallel width.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "order/ordering.hpp"
#include "sparse/generators.hpp"
#include "sparse/pattern.hpp"
#include "support/prng.hpp"
#include "symbolic/symbolic.hpp"

namespace treemem {
namespace {

std::int64_t fill_after(const SparsePattern& a, const std::vector<Index>& perm) {
  return factor_nnz(permute_symmetric(a, perm));
}

Index bandwidth(const SparsePattern& a) {
  Index bw = 0;
  for (Index j = 0; j < a.cols(); ++j) {
    for (const Index i : a.column(j)) {
      bw = std::max(bw, static_cast<Index>(std::abs(i - j)));
    }
  }
  return bw;
}

TEST(Orderings, NaturalAndRandomAreValid) {
  EXPECT_EQ(natural_order(4), (std::vector<Index>{0, 1, 2, 3}));
  Prng prng(3);
  const auto r = random_order(100, prng);
  check_permutation(r, 100);
}

class OrderingSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OrderingSweep, AllOrderingsAreValidPermutations) {
  const std::uint64_t seed = GetParam();
  Prng prng(seed);
  const SparsePattern a = symmetrize(gen::random_symmetric(150, 4.0, prng));
  check_permutation(rcm_order(a), a.cols());
  check_permutation(min_degree_order(a), a.cols());
  check_permutation(nested_dissection_order(a), a.cols());
}

// Minimum degree with approximate degrees (its only variant) never fills
// more than the natural order.
TEST_P(OrderingSweep, ExactAndApproximateDegreesBothReduceFill) {
  const std::uint64_t seed = GetParam();
  Prng prng(seed * 17);
  const SparsePattern a = symmetrize(gen::random_symmetric(120, 3.0, prng));
  const std::int64_t natural = fill_after(a, natural_order(a.cols()));
  EXPECT_LE(fill_after(a, min_degree_order(a)), natural);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderingSweep,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(Orderings, RcmShrinksGridBandwidth) {
  // Natural order of a wide grid has bandwidth nx; RCM should do no worse,
  // and it must massacre the bandwidth of a randomly permuted grid.
  const SparsePattern a = symmetrize(gen::grid2d(30, 10));
  Prng prng(5);
  const auto scrambled = permute_symmetric(a, random_order(a.cols(), prng));
  const Index before = bandwidth(scrambled);
  const Index after = bandwidth(permute_symmetric(scrambled, rcm_order(scrambled)));
  EXPECT_LT(after, before / 4);
}

TEST(Orderings, MinDegreeBeatsNaturalOnGrids) {
  const SparsePattern a = symmetrize(gen::grid2d(24, 24));
  const std::int64_t natural = fill_after(a, natural_order(a.cols()));
  const std::int64_t md = fill_after(a, min_degree_order(a));
  EXPECT_LT(md, natural);
}

TEST(Orderings, NestedDissectionBeatsNaturalOnGrids) {
  const SparsePattern a = symmetrize(gen::grid2d(24, 24));
  const std::int64_t natural = fill_after(a, natural_order(a.cols()));
  const std::int64_t nd = fill_after(a, nested_dissection_order(a));
  EXPECT_LT(nd, natural);
}

TEST(Orderings, MinDegreeOptimalOnTridiagonal) {
  // A tridiagonal matrix has no fill under the natural order, and minimum
  // degree must find a no-fill elimination too.
  Prng prng(1);
  const SparsePattern a = symmetrize(gen::banded(60, 1, 1.0, prng));
  EXPECT_EQ(fill_after(a, min_degree_order(a)), 2 * 60 - 1);
}

TEST(Orderings, Deterministic) {
  Prng prng(9);
  const SparsePattern a = symmetrize(gen::random_symmetric(200, 4.0, prng));
  EXPECT_EQ(min_degree_order(a), min_degree_order(a));
  EXPECT_EQ(nested_dissection_order(a), nested_dissection_order(a));
  EXPECT_EQ(rcm_order(a), rcm_order(a));
}

TEST(Orderings, HandleDisconnectedGraphs) {
  Prng prng(21);
  const SparsePattern a = gen::grid2d_with_holes(12, 12, 0.45, prng);
  const SparsePattern s = symmetrize(a);
  check_permutation(rcm_order(s), s.cols());
  check_permutation(min_degree_order(s), s.cols());
  check_permutation(nested_dissection_order(s), s.cols());
}

TEST(Orderings, TinyAndDegenerateInputs) {
  const SparsePattern one = SparsePattern::from_coo(1, 1, {{0, 0}});
  EXPECT_EQ(min_degree_order(one), (std::vector<Index>{0}));
  EXPECT_EQ(rcm_order(one), (std::vector<Index>{0}));
  EXPECT_EQ(nested_dissection_order(one), (std::vector<Index>{0}));

  // Diagonal-only matrix: everything has degree zero.
  const SparsePattern diag =
      SparsePattern::from_coo(5, 5, {{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}});
  check_permutation(min_degree_order(diag), 5);
  check_permutation(nested_dissection_order(diag), 5);
}

/// FNV-1a over a permutation.
std::uint64_t digest(const std::vector<Index>& perm) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const Index v : perm) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 1099511628211ULL;
  }
  return h;
}

struct PinnedOrdering {
  const char* name;
  SparsePattern pattern;
  Index leaf_size;
  std::uint64_t nd;
  std::uint64_t rcm;  ///< 0: not pinned for this case
  std::uint64_t md;   ///< 0: not pinned for this case
};

// The orderings are part of every analysis, so a change to them moves every
// downstream figure. These digests pin the exact permutations; a faster
// implementation must reproduce them. Together the cases reach every branch
// of the dissection: median-level separators, disconnected subsets (the
// holes), shallow connected subsets that fall back to minimum degree (the
// block-tridiagonal with leaf size 4), and several RCM components. The
// 5,000-vertex random pattern merges about 900 supervariables in minimum
// degree, the 60-vertex one needs the approximate degree's exact-fill cap,
// the two large grids are big enough for nested dissection to fork frames,
// and the last holey grid falls into hundreds of pieces that it peels off.
std::vector<PinnedOrdering> pinned_orderings() {
  Prng holes(7);
  Prng coupling(7);
  Prng edges(99);
  const SparsePattern blocktri = gen::block_tridiagonal(32, 8, 0.25, coupling);
  const SparsePattern holey = gen::grid2d_with_holes(40, 40, 0.2, holes);
  const SparsePattern random =
      symmetrize(gen::random_symmetric(5000, 4.0, edges));
  Prng dense(16 * 1000 + 60);
  const SparsePattern capped =
      symmetrize(gen::random_symmetric(60, 6.0, dense));
  Prng pieces(3);
  const SparsePattern many_pieces =
      gen::grid2d_with_holes(200, 200, 0.45, pieces);
  return {
      {"grid2d 48x48", gen::grid2d(48, 48), 64, 0x777f0327cf25da23ULL,
       0x57ab3f6de63d7073ULL, 0xf834c3c74dcaf2edULL},
      {"grid3d-27pt 10^3", gen::grid3d(10, 10, 10, true), 64,
       0xd4fd5dc2ac44bac9ULL, 0x480501c2b6dee765ULL, 0xa20c63aad1ec3049ULL},
      {"block_tridiagonal 32x8", blocktri, 64, 0x40c41076f7622883ULL,
       0x4bad93d5f217b965ULL, 0xc181227f77494783ULL},
      {"grid2d_with_holes 40x40", holey, 64, 0x661e32b954b7be47ULL,
       0x6bd0361783fed975ULL, 0xc313849d87af5dbbULL},
      {"block_tridiagonal 32x8, leaf 4", blocktri, 4, 0x0bf7691d2fcf5a7bULL,
       0, 0},
      {"grid2d_with_holes 40x40, leaf 4", holey, 4, 0xa01f32882279a7cdULL, 0,
       0},
      {"random_symmetric 5000", random, 64, 0x2e754d7f7a6711e3ULL, 0,
       0x41a080ddc4804355ULL},
      {"random_symmetric 60, degree cap binds", capped, 16,
       0xcffcc7d9e8671349ULL, 0, 0x42b60fe3d7bb70dbULL},
      {"grid2d 192x192", gen::grid2d(192, 192), 64, 0xcdfa569737d13dcdULL, 0,
       0},
      {"grid3d-27pt 20^3", gen::grid3d(20, 20, 20, true), 64,
       0x80f74b81dad92681ULL, 0, 0},
      {"grid2d_with_holes 200x200", many_pieces, 64, 0x1fb861364b313125ULL,
       0, 0},
  };
}

TEST(Orderings, PinnedPermutations) {
  for (const PinnedOrdering& c : pinned_orderings()) {
    SCOPED_TRACE(c.name);
    const NestedDissectionOptions options{.leaf_size = c.leaf_size};
    EXPECT_EQ(digest(nested_dissection_order(c.pattern, options)), c.nd);
    if (c.rcm != 0) {
      EXPECT_EQ(digest(rcm_order(c.pattern)), c.rcm);
    }
    if (c.md != 0) {
      EXPECT_EQ(digest(min_degree_order(c.pattern)), c.md);
    }
  }
}

TEST(Orderings, NestedDissectionDoesNotDependOnItsWidth) {
  // The pinned patterns big enough to fork frames: the connected ones split
  // at median levels, the holey grid peels off hundreds of pieces.
  for (const PinnedOrdering& c : pinned_orderings()) {
    if (c.pattern.cols() < 5000) {
      continue;
    }
    SCOPED_TRACE(c.name);
    const std::vector<Index> serial =
        nested_dissection_order(c.pattern, {}, 1);
    for (const unsigned width : {2u, 4u, 0u}) {
      EXPECT_EQ(nested_dissection_order(c.pattern, {}, width), serial)
          << "width " << width;
    }
  }
}

TEST(Orderings, RejectUnsymmetricPatterns) {
  const SparsePattern lower =
      SparsePattern::from_coo(2, 2, {{0, 0}, {1, 0}, {1, 1}});
  EXPECT_THROW(min_degree_order(lower), Error);
  EXPECT_THROW(nested_dissection_order(lower), Error);
}

}  // namespace
}  // namespace treemem
