// Tests for the sparse pattern substrate: CSC construction, symmetrization,
// permutation, Matrix Market I/O and the matrix generators.
#include <gtest/gtest.h>

#include <sstream>

#include "sparse/generators.hpp"
#include "sparse/matrix.hpp"
#include "sparse/mm_io.hpp"
#include "sparse/pattern.hpp"
#include "support/prng.hpp"

namespace treemem {
namespace {

SparsePattern small_asym() {
  // 4x4: entries (0,0),(1,0),(3,1),(2,2),(0,3)
  return SparsePattern::from_coo(
      4, 4, {{0, 0}, {1, 0}, {3, 1}, {2, 2}, {0, 3}});
}

TEST(Pattern, FromCooSortsAndDedups) {
  const SparsePattern p = SparsePattern::from_coo(
      3, 3, {{2, 0}, {0, 0}, {2, 0}, {1, 2}, {1, 2}});
  EXPECT_EQ(p.nnz(), 3);
  const auto col0 = p.column(0);
  ASSERT_EQ(col0.size(), 2u);
  EXPECT_EQ(col0[0], 0);
  EXPECT_EQ(col0[1], 2);
  EXPECT_TRUE(p.has_entry(1, 2));
  EXPECT_FALSE(p.has_entry(2, 2));
}

TEST(Pattern, RejectsBadInput) {
  EXPECT_THROW(SparsePattern::from_coo(2, 2, {{2, 0}}), Error);
  EXPECT_THROW(SparsePattern::from_coo(2, 2, {{0, -1}}), Error);
  EXPECT_THROW(SparsePattern(2, 2, {0, 1}, {0}), Error);      // bad col_ptr size
  EXPECT_THROW(SparsePattern(2, 2, {0, 2, 1}, {0, 1}), Error);  // not monotone
}

TEST(Pattern, CanonicalInputKeptOtherInputCanonicalized) {
  const SparsePattern sorted(3, 3, {0, 2, 3, 4}, {0, 2, 1, 2});
  EXPECT_EQ(sorted.row_idx(), (std::vector<Index>{0, 2, 1, 2}));
  const SparsePattern messy(3, 3, {0, 3, 4, 5}, {2, 0, 2, 1, 2});
  EXPECT_EQ(messy.col_ptr(), sorted.col_ptr());
  EXPECT_EQ(messy.row_idx(), sorted.row_idx());
  EXPECT_THROW(SparsePattern(2, 2, {0, 1, 1}, {2}), Error);  // row out of range
  EXPECT_THROW(SparsePattern(2, 2, {0, 3, 1}, {0}), Error);  // col_ptr past nnz
}

/// The message of the Error thrown when `values` on `pattern` are not
/// symmetric ("" when nothing is thrown).
std::string asymmetry_error(const SparsePattern& pattern,
                            std::vector<double> values) {
  try {
    const SymmetricMatrix a(pattern, std::move(values));
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(SymmetricMatrix, AsymmetricPairInFirstOrLastColumnThrows) {
  // Columns 0 = {0,1,3} and 8 = {5,7,8}.
  const SparsePattern p = symmetrize(gen::grid2d(3, 3));
  const std::vector<double> values = make_spd_matrix(p, 7).values();
  EXPECT_EQ(asymmetry_error(p, values), "");

  std::vector<double> first = values;
  first[static_cast<std::size_t>(p.col_ptr()[0]) + 1] += 1.0;  // (1,0)
  EXPECT_NE(asymmetry_error(p, first).find("asymmetric values at (1,0)"),
            std::string::npos);

  std::vector<double> last = values;
  last[static_cast<std::size_t>(p.col_ptr()[8])] += 1.0;  // (5,8)
  // Entries are checked in column order, so the pair is reported at its
  // mirror (8,5), the first of the two visited.
  EXPECT_NE(asymmetry_error(p, last).find("asymmetric values at (8,5)"),
            std::string::npos);
}

TEST(SymmetricMatrix, AsymmetricPatternIsReportedFirst) {
  // (1,0) without (0,1); and (0,1) without (1,0). Values differ too.
  for (const SparsePattern& p : {SparsePattern(2, 2, {0, 2, 3}, {0, 1, 1}),
                                 SparsePattern(2, 2, {0, 1, 3}, {0, 0, 1})}) {
    EXPECT_NE(asymmetry_error(p, {1.0, 2.0, 3.0}).find("pattern not symmetric"),
              std::string::npos);
  }
}

TEST(Pattern, TransposeRoundTrip) {
  const SparsePattern p = small_asym();
  const SparsePattern tt = p.transposed().transposed();
  EXPECT_EQ(tt.col_ptr(), p.col_ptr());
  EXPECT_EQ(tt.row_idx(), p.row_idx());
  EXPECT_TRUE(p.transposed().has_entry(3, 0));  // (0,3) transposed
}

TEST(Pattern, SymmetrizeAddsTransposeAndDiagonal) {
  const SparsePattern s = symmetrize(small_asym());
  EXPECT_TRUE(s.is_symmetric());
  EXPECT_TRUE(s.has_full_diagonal());
  EXPECT_TRUE(s.has_entry(0, 1));  // mirror of (1,0)
  EXPECT_TRUE(s.has_entry(1, 0));
  EXPECT_TRUE(s.has_entry(3, 3));  // diagonal added
}

TEST(Pattern, PermuteSymmetricRelabels) {
  const SparsePattern s = symmetrize(small_asym());
  const std::vector<Index> perm{3, 2, 1, 0};  // reversal
  const SparsePattern q = permute_symmetric(s, perm);
  EXPECT_TRUE(q.is_symmetric());
  EXPECT_EQ(q.nnz(), s.nnz());
  // Entry (1,0) of A maps to (inverse[1], inverse[0]) = (2,3).
  EXPECT_EQ(q.has_entry(2, 3), s.has_entry(1, 0));
  EXPECT_THROW(permute_symmetric(s, {0, 1, 2}), Error);
  EXPECT_THROW(permute_symmetric(s, {0, 0, 1, 2}), Error);
}

TEST(Pattern, PermutationHelpers) {
  const std::vector<Index> perm{2, 0, 3, 1};
  const std::vector<Index> inv = invert_permutation(perm);
  EXPECT_EQ(inv, (std::vector<Index>{1, 3, 0, 2}));
  EXPECT_THROW(check_permutation({0, 0, 1}, 3), Error);
}

TEST(MatrixMarket, ParsesGeneralReal) {
  const std::string text =
      "%%MatrixMarket matrix coordinate real general\n"
      "% comment\n"
      "3 3 3\n"
      "1 1 1.5\n"
      "2 1 -2.0\n"
      "3 3 7\n";
  const SparsePattern p = read_matrix_market_string(text);
  EXPECT_EQ(p.rows(), 3);
  EXPECT_EQ(p.nnz(), 3);
  EXPECT_TRUE(p.has_entry(1, 0));
}

TEST(MatrixMarket, ExpandsSymmetric) {
  const std::string text =
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "3 3 2\n"
      "2 1\n"
      "3 3\n";
  const SparsePattern p = read_matrix_market_string(text);
  EXPECT_EQ(p.nnz(), 3);  // (1,0), (0,1), (2,2)
  EXPECT_TRUE(p.has_entry(0, 1));
  EXPECT_TRUE(p.has_entry(1, 0));
}

TEST(MatrixMarket, ParsesComplexAndInteger) {
  const SparsePattern c = read_matrix_market_string(
      "%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 2 3.0 4.0\n");
  EXPECT_TRUE(c.has_entry(0, 1));
  const SparsePattern i = read_matrix_market_string(
      "%%MatrixMarket matrix coordinate integer symmetric\n2 2 1\n2 1 5\n");
  EXPECT_EQ(i.nnz(), 2);
}

TEST(MatrixMarket, RejectsGarbage) {
  EXPECT_THROW(read_matrix_market_string("not a matrix\n"), Error);
  EXPECT_THROW(read_matrix_market_string(
                   "%%MatrixMarket matrix array real general\n2 2\n"),
               Error);
  EXPECT_THROW(read_matrix_market_string(
                   "%%MatrixMarket matrix coordinate real general\n2 2 1\n"
                   "5 1 1.0\n"),
               Error);
  EXPECT_THROW(read_matrix_market_string(
                   "%%MatrixMarket matrix coordinate real general\n2 2 2\n"
                   "1 1 1.0\n"),
               Error);
}

TEST(MatrixMarket, WriteReadRoundTrip) {
  Prng prng(5);
  const SparsePattern p = symmetrize(gen::random_symmetric(30, 4.0, prng));
  for (const bool lower : {false, true}) {
    std::ostringstream oss;
    write_matrix_market(oss, p, lower);
    const SparsePattern back = read_matrix_market_string(oss.str());
    EXPECT_EQ(back.col_ptr(), p.col_ptr()) << "lower=" << lower;
    EXPECT_EQ(back.row_idx(), p.row_idx());
  }
}

TEST(Generators, Grid2dStructure) {
  const SparsePattern g = gen::grid2d(4, 3);
  EXPECT_EQ(g.rows(), 12);
  EXPECT_TRUE(g.is_symmetric());
  EXPECT_TRUE(g.has_full_diagonal());
  // Interior vertex (1,1) = id 5 has 4 neighbours + diagonal.
  EXPECT_EQ(g.column(5).size(), 5u);
  // Corner vertex 0 has 2 neighbours + diagonal.
  EXPECT_EQ(g.column(0).size(), 3u);
  // 9-point has diagonal neighbours too.
  const SparsePattern g9 = gen::grid2d(4, 3, true);
  EXPECT_EQ(g9.column(5).size(), 9u);
}

TEST(Generators, Grid3dStructure) {
  const SparsePattern g = gen::grid3d(3, 3, 3);
  EXPECT_EQ(g.rows(), 27);
  EXPECT_TRUE(g.is_symmetric());
  // Center vertex has 6 neighbours + diagonal.
  EXPECT_EQ(g.column(13).size(), 7u);
  const SparsePattern g27 = gen::grid3d(3, 3, 3, true);
  EXPECT_EQ(g27.column(13).size(), 27u);
}

TEST(Generators, RandomSymmetricDensity) {
  Prng prng(11);
  const SparsePattern p = gen::random_symmetric(2000, 4.0, prng);
  EXPECT_TRUE(p.is_symmetric());
  EXPECT_TRUE(p.has_full_diagonal());
  const double off_per_row =
      static_cast<double>(p.nnz() - p.rows()) / p.rows();
  EXPECT_GT(off_per_row, 2.5);
  EXPECT_LT(off_per_row, 5.5);
}

TEST(Generators, BandedArrowheadBlocks) {
  Prng prng(3);
  const SparsePattern band = gen::banded(50, 3, 1.0, prng);
  EXPECT_TRUE(band.is_symmetric());
  EXPECT_FALSE(band.has_entry(0, 10));
  EXPECT_TRUE(band.has_entry(0, 3));

  const SparsePattern arrow = gen::arrowhead(20, 2);
  EXPECT_TRUE(arrow.has_entry(0, 19));
  EXPECT_TRUE(arrow.has_entry(1, 19));
  EXPECT_FALSE(arrow.has_entry(2, 19));

  const SparsePattern bt = gen::block_tridiagonal(4, 5, 0.5, prng);
  EXPECT_TRUE(bt.is_symmetric());
  EXPECT_EQ(bt.rows(), 20);
  EXPECT_TRUE(bt.has_entry(0, 4));     // inside first block
  EXPECT_FALSE(bt.has_entry(0, 12));   // two blocks away
}

TEST(Generators, HolesKeepDimension) {
  Prng prng(17);
  const SparsePattern g = gen::grid2d_with_holes(10, 10, 0.3, prng);
  EXPECT_EQ(g.rows(), 100);
  EXPECT_TRUE(g.is_symmetric());
  EXPECT_TRUE(g.has_full_diagonal());
  EXPECT_LT(g.nnz(), gen::grid2d(10, 10).nnz());
}

}  // namespace
}  // namespace treemem
