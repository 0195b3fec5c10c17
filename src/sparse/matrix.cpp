#include "sparse/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "support/prng.hpp"

namespace treemem {

SymmetricMatrix::SymmetricMatrix(SparsePattern pattern,
                                 std::vector<double> values)
    : pattern_(std::move(pattern)), values_(std::move(values)) {
  TM_CHECK(pattern_.is_square(), "SymmetricMatrix: pattern must be square");
  TM_CHECK(values_.size() == static_cast<std::size_t>(pattern_.nnz()),
           "SymmetricMatrix: " << values_.size() << " values for "
                               << pattern_.nnz() << " entries");
  // One linear pass checks pattern and values: columns are visited in
  // order and sorted, so the mirror (j, r) of entry (r, j) must be the next
  // unvisited entry of column r. Pattern errors take precedence.
  const std::vector<std::int64_t>& col_ptr = pattern_.col_ptr();
  std::vector<std::int64_t> mirror(col_ptr.begin(), col_ptr.end() - 1);
  bool symmetric_pattern = true;
  Index bad_row = -1, bad_col = -1;  // first asymmetric value pair
  for_each_entry(pattern_, [&](Index r, Index j, std::size_t offset) {
    const auto m = mirror[static_cast<std::size_t>(r)]++;
    symmetric_pattern = symmetric_pattern &&
                        m < col_ptr[static_cast<std::size_t>(r) + 1] &&
                        pattern_.row_idx()[static_cast<std::size_t>(m)] == j;
    if (symmetric_pattern && bad_row < 0 &&
        values_[offset] != values_[static_cast<std::size_t>(m)]) {
      bad_row = r;
      bad_col = j;
    }
  });
  TM_CHECK(symmetric_pattern, "SymmetricMatrix: pattern not symmetric");
  TM_CHECK(bad_row < 0, "SymmetricMatrix: asymmetric values at ("
                            << bad_row << "," << bad_col << ")");
}

double SymmetricMatrix::value_of(Index row, Index col) const {
  const auto c = pattern_.column(col);
  const auto it = std::lower_bound(c.begin(), c.end(), row);
  if (it == c.end() || *it != row) {
    return 0.0;
  }
  const std::size_t offset =
      static_cast<std::size_t>(pattern_.col_ptr()[static_cast<std::size_t>(col)]) +
      static_cast<std::size_t>(it - c.begin());
  return values_[offset];
}

std::vector<double> SymmetricMatrix::multiply(
    const std::vector<double>& x) const {
  TM_CHECK(x.size() == static_cast<std::size_t>(pattern_.cols()),
           "multiply: x has " << x.size() << " entries, expected "
                              << pattern_.cols());
  std::vector<double> y(x.size(), 0.0);
  // Both triangles are stored, so one pass over the entries is A·x.
  for_each_entry(pattern_, [&](Index r, Index j, std::size_t offset) {
    y[static_cast<std::size_t>(r)] +=
        values_[offset] * x[static_cast<std::size_t>(j)];
  });
  return y;
}

SymmetricMatrix SymmetricMatrix::permuted(const std::vector<Index>& perm) const {
  PermutedPattern permuted = permute_symmetric_mapped(pattern_, perm);
  std::vector<double> permuted_values(permuted.source_offset.size());
  for (std::size_t o = 0; o < permuted_values.size(); ++o) {
    permuted_values[o] = values_[permuted.source_offset[o]];
  }
  return SymmetricMatrix(std::move(permuted.pattern),
                         std::move(permuted_values));
}

SymmetricMatrix make_spd_matrix(const SparsePattern& pattern,
                                std::uint64_t seed) {
  TM_CHECK(pattern.is_symmetric() && pattern.has_full_diagonal(),
           "make_spd_matrix: need a symmetric pattern with full diagonal");
  const Index n = pattern.cols();

  // Deterministic symmetric off-diagonal values: a hash of the unordered
  // index pair, mapped to [-1, -1/4] ∪ [1/4, 1].
  auto pair_value = [&](Index a, Index b) {
    const std::uint64_t lo = static_cast<std::uint64_t>(std::min(a, b));
    const std::uint64_t hi = static_cast<std::uint64_t>(std::max(a, b));
    Prng prng(seed ^ (lo * 0x9e3779b97f4a7c15ULL + hi + 0x1234567ULL));
    const double magnitude = 0.25 + 0.75 * prng.uniform_real();
    return prng.bernoulli(0.5) ? magnitude : -magnitude;
  };

  // Row sums of absolute off-diagonals for the dominant diagonal.
  std::vector<double> row_abs(static_cast<std::size_t>(n), 0.0);
  for_each_entry(pattern, [&](Index r, Index j, std::size_t) {
    if (r != j) {
      row_abs[static_cast<std::size_t>(r)] += std::abs(pair_value(r, j));
    }
  });

  std::vector<double> values(static_cast<std::size_t>(pattern.nnz()));
  for_each_entry(pattern, [&](Index r, Index j, std::size_t offset) {
    values[offset] = (r == j) ? 1.0 + row_abs[static_cast<std::size_t>(r)]
                              : pair_value(r, j);
  });
  return SymmetricMatrix(pattern, std::move(values));
}

}  // namespace treemem
