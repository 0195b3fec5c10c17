#include "sparse/pattern.hpp"

#include <algorithm>
#include <numeric>

namespace treemem {

SparsePattern::SparsePattern(Index rows, Index cols,
                             std::vector<std::int64_t> col_ptr,
                             std::vector<Index> row_idx)
    : rows_(rows), cols_(cols), col_ptr_(std::move(col_ptr)),
      row_idx_(std::move(row_idx)) {
  TM_CHECK(rows_ >= 0 && cols_ >= 0, "negative dimensions");
  TM_CHECK(col_ptr_.size() == static_cast<std::size_t>(cols_) + 1,
           "col_ptr size " << col_ptr_.size() << " != cols+1");
  TM_CHECK(col_ptr_.front() == 0, "col_ptr must start at 0");
  TM_CHECK(col_ptr_.back() == static_cast<std::int64_t>(row_idx_.size()),
           "col_ptr end " << col_ptr_.back() << " != nnz "
                          << row_idx_.size());

  // A strictly increasing column (what every library routine emits) is
  // only validated, in place; the first column that is not triggers a
  // rebuild that sorts and deduplicates every column.
  bool strictly_increasing = true;
  for (Index j = 0; j < cols_; ++j) {
    const std::int64_t begin = col_ptr_[static_cast<std::size_t>(j)];
    const std::int64_t end = col_ptr_[static_cast<std::size_t>(j) + 1];
    TM_CHECK(begin <= end && end <= col_ptr_.back(),
             "col_ptr not monotone at column " << j);
    for (std::int64_t e = begin; e < end; ++e) {
      const Index r = row_idx_[static_cast<std::size_t>(e)];
      TM_CHECK(r >= 0 && r < rows_,
               "row index " << r << " out of range in column " << j);
      strictly_increasing = strictly_increasing &&
                            (e == begin ||
                             row_idx_[static_cast<std::size_t>(e) - 1] < r);
    }
  }
  if (strictly_increasing) {
    return;
  }
  std::vector<Index> scratch;
  std::vector<std::int64_t> new_ptr(col_ptr_.size(), 0);
  std::vector<Index> new_idx;
  new_idx.reserve(row_idx_.size());
  for (std::size_t j = 0; j < static_cast<std::size_t>(cols_); ++j) {
    scratch.assign(row_idx_.begin() + col_ptr_[j],
                   row_idx_.begin() + col_ptr_[j + 1]);
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
    new_idx.insert(new_idx.end(), scratch.begin(), scratch.end());
    new_ptr[j + 1] = static_cast<std::int64_t>(new_idx.size());
  }
  col_ptr_ = std::move(new_ptr);
  row_idx_ = std::move(new_idx);
}

SparsePattern SparsePattern::from_coo(
    Index rows, Index cols, std::vector<std::pair<Index, Index>> entries) {
  std::vector<std::int64_t> col_ptr(static_cast<std::size_t>(cols) + 1, 0);
  for (const auto& [r, c] : entries) {
    TM_CHECK(r >= 0 && r < rows && c >= 0 && c < cols,
             "COO entry (" << r << "," << c << ") out of range " << rows
                           << "x" << cols);
    ++col_ptr[static_cast<std::size_t>(c) + 1];
  }
  std::partial_sum(col_ptr.begin(), col_ptr.end(), col_ptr.begin());
  std::vector<Index> row_idx(entries.size());
  std::vector<std::int64_t> cursor(col_ptr.begin(), col_ptr.end() - 1);
  for (const auto& [r, c] : entries) {
    row_idx[static_cast<std::size_t>(cursor[static_cast<std::size_t>(c)]++)] = r;
  }
  return SparsePattern(rows, cols, std::move(col_ptr), std::move(row_idx));
}

bool SparsePattern::has_entry(Index row, Index col) const {
  const auto c = column(col);
  return std::binary_search(c.begin(), c.end(), row);
}

SparsePattern SparsePattern::transposed() const {
  std::vector<std::int64_t> col_ptr(static_cast<std::size_t>(rows_) + 1, 0);
  for (const Index r : row_idx_) {
    ++col_ptr[static_cast<std::size_t>(r) + 1];
  }
  std::partial_sum(col_ptr.begin(), col_ptr.end(), col_ptr.begin());
  std::vector<Index> row_idx(row_idx_.size());
  std::vector<std::int64_t> cursor(col_ptr.begin(), col_ptr.end() - 1);
  for (Index j = 0; j < cols_; ++j) {
    for (const Index r : column(j)) {
      row_idx[static_cast<std::size_t>(cursor[static_cast<std::size_t>(r)]++)] = j;
    }
  }
  return SparsePattern(cols_, rows_, std::move(col_ptr), std::move(row_idx));
}

bool SparsePattern::is_symmetric() const {
  if (!is_square()) {
    return false;
  }
  // Visiting the columns j in ascending order hands every column i the rows
  // it must hold (the j whose column holds i) in ascending order, so one
  // cursor per column matches them in O(nnz) without a transpose. Every
  // visited entry consumes one distinct entry, so a walk that never
  // mismatches has consumed them all.
  std::vector<std::int64_t> cursor(col_ptr_.begin(), col_ptr_.end() - 1);
  for (Index j = 0; j < cols_; ++j) {
    for (const Index r : column(j)) {
      const auto i = static_cast<std::size_t>(r);
      std::int64_t& at = cursor[i];
      if (at == col_ptr_[i + 1] ||
          row_idx_[static_cast<std::size_t>(at)] != j) {
        return false;
      }
      ++at;
    }
  }
  return true;
}

bool SparsePattern::has_full_diagonal() const {
  TM_CHECK(is_square(), "diagonal check needs a square pattern");
  for (Index j = 0; j < cols_; ++j) {
    if (!has_entry(j, j)) {
      return false;
    }
  }
  return true;
}

SparsePattern symmetrize(const SparsePattern& a) {
  TM_CHECK(a.is_square(), "symmetrize needs a square pattern, got "
                              << a.rows() << "x" << a.cols());
  const SparsePattern t = a.transposed();
  std::vector<std::int64_t> col_ptr(static_cast<std::size_t>(a.cols()) + 1, 0);
  std::vector<Index> row_idx;
  row_idx.reserve(static_cast<std::size_t>(2 * a.nnz() + a.cols()));
  std::vector<Index> merged;
  for (Index j = 0; j < a.cols(); ++j) {
    const auto ca = a.column(j);
    const auto cb = t.column(j);
    merged.clear();
    std::set_union(ca.begin(), ca.end(), cb.begin(), cb.end(),
                   std::back_inserter(merged));
    // Insert the diagonal (the +I term).
    if (!std::binary_search(merged.begin(), merged.end(), j)) {
      merged.insert(std::lower_bound(merged.begin(), merged.end(), j), j);
    }
    row_idx.insert(row_idx.end(), merged.begin(), merged.end());
    col_ptr[static_cast<std::size_t>(j) + 1] =
        static_cast<std::int64_t>(row_idx.size());
  }
  return SparsePattern(a.rows(), a.cols(), std::move(col_ptr),
                       std::move(row_idx));
}

void check_permutation(const std::vector<Index>& perm, Index n) {
  TM_CHECK(perm.size() == static_cast<std::size_t>(n),
           "permutation size " << perm.size() << " != " << n);
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (const Index v : perm) {
    TM_CHECK(v >= 0 && v < n && !seen[static_cast<std::size_t>(v)],
             "not a permutation: bad entry " << v);
    seen[static_cast<std::size_t>(v)] = 1;
  }
}

std::vector<Index> invert_permutation(const std::vector<Index>& perm) {
  std::vector<Index> inverse(perm.size());
  for (std::size_t k = 0; k < perm.size(); ++k) {
    inverse[static_cast<std::size_t>(perm[k])] = static_cast<Index>(k);
  }
  return inverse;
}

PermutedPattern permute_symmetric_mapped(const SparsePattern& a,
                                         const std::vector<Index>& perm) {
  TM_CHECK(a.is_square(), "permute_symmetric needs a square pattern");
  check_permutation(perm, a.cols());
  const std::vector<Index> inverse = invert_permutation(perm);
  const auto n = static_cast<std::size_t>(a.cols());
  const auto nnz = static_cast<std::size_t>(a.nnz());
  const std::vector<std::int64_t>& old_ptr = a.col_ptr();
  const std::vector<Index>& old_rows = a.row_idx();

  // Pass 1: bucket every entry by its new row, visiting the old columns in
  // new-column order, so each row bucket lists its new columns ascending.
  const auto new_index = [&](Index old) {
    return static_cast<std::size_t>(inverse[static_cast<std::size_t>(old)]);
  };
  std::vector<std::int64_t> row_ptr(n + 1, 0);
  for (const Index r : old_rows) {
    ++row_ptr[new_index(r) + 1];
  }
  std::partial_sum(row_ptr.begin(), row_ptr.end(), row_ptr.begin());
  std::vector<Index> row_cols(nnz);
  std::vector<std::size_t> row_source(nnz);
  std::vector<std::int64_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  for (std::size_t k = 0; k < n; ++k) {
    const auto j = static_cast<std::size_t>(perm[k]);
    for (auto o = static_cast<std::size_t>(old_ptr[j]);
         o < static_cast<std::size_t>(old_ptr[j + 1]); ++o) {
      const auto slot =
          static_cast<std::size_t>(cursor[new_index(old_rows[o])]++);
      row_cols[slot] = static_cast<Index>(k);
      row_source[slot] = o;
    }
  }

  // Pass 2: bucket by new column, visiting the rows in new-row order, so
  // each column comes out with its rows ascending.
  std::vector<std::int64_t> col_ptr(n + 1, 0);
  for (std::size_t k = 0; k < n; ++k) {
    const auto j = static_cast<std::size_t>(perm[k]);
    col_ptr[k + 1] = col_ptr[k] + (old_ptr[j + 1] - old_ptr[j]);
  }
  std::vector<Index> row_idx(nnz);
  PermutedPattern result;
  result.source_offset.resize(nnz);
  cursor.assign(col_ptr.begin(), col_ptr.end() - 1);
  for (std::size_t r = 0; r < n; ++r) {
    for (auto slot = static_cast<std::size_t>(row_ptr[r]);
         slot < static_cast<std::size_t>(row_ptr[r + 1]); ++slot) {
      const auto dst = static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(row_cols[slot])]++);
      row_idx[dst] = static_cast<Index>(r);
      result.source_offset[dst] = row_source[slot];
    }
  }
  result.pattern = SparsePattern(a.rows(), a.cols(), std::move(col_ptr),
                                 std::move(row_idx));
  return result;
}

SparsePattern permute_symmetric(const SparsePattern& a,
                                const std::vector<Index>& perm) {
  return permute_symmetric_mapped(a, perm).pattern;
}

}  // namespace treemem
