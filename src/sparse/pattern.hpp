// Sparse matrix *patterns* in compressed sparse column form.
//
// The traversal algorithms of this library consume only symbolic structure
// (elimination trees, column counts), so the sparse substrate stores
// patterns — sorted, duplicate-free row indices per column — and no
// numerical values. This is exactly what Matlab's symbfact consumed in the
// paper's pipeline.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace treemem {

/// Row/column index type (shared with tree NodeId on purpose: column i of
/// the factor maps to node i of the elimination tree).
using Index = std::int32_t;

class SparsePattern {
 public:
  SparsePattern() = default;

  /// Builds from CSC arrays. Row indices must be in range; they are sorted
  /// and deduplicated per column.
  SparsePattern(Index rows, Index cols, std::vector<std::int64_t> col_ptr,
                std::vector<Index> row_idx);

  /// Builds from coordinate (row, col) entries; duplicates are merged.
  static SparsePattern from_coo(Index rows, Index cols,
                                std::vector<std::pair<Index, Index>> entries);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  std::int64_t nnz() const { return static_cast<std::int64_t>(row_idx_.size()); }

  /// Row indices of column j, sorted ascending.
  std::span<const Index> column(Index j) const {
    TM_CHECK(j >= 0 && j < cols_, "column " << j << " out of range");
    return {row_idx_.data() + col_ptr_[static_cast<std::size_t>(j)],
            row_idx_.data() + col_ptr_[static_cast<std::size_t>(j) + 1]};
  }

  const std::vector<std::int64_t>& col_ptr() const { return col_ptr_; }
  const std::vector<Index>& row_idx() const { return row_idx_; }

  bool has_entry(Index row, Index col) const;

  SparsePattern transposed() const;
  bool is_square() const { return rows_ == cols_; }
  bool is_symmetric() const;

  /// Whether every diagonal entry is present (square patterns only).
  bool has_full_diagonal() const;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<std::int64_t> col_ptr_;  // size cols+1
  std::vector<Index> row_idx_;
};

/// Pattern of |A| + |Aᵀ| + I — the symmetrization the paper applies to
/// every input matrix before ordering (Section VI-B). Requires square A.
SparsePattern symmetrize(const SparsePattern& a);

/// Symmetric permutation P A Pᵀ. `perm[k]` is the original index placed at
/// position k (so column k of the result is column perm[k] of A, with row
/// indices relabelled by the inverse permutation). Two counting passes,
/// O(nnz + n): bucket by new row while visiting the old columns in new
/// column order, then by new column while visiting the rows in new row
/// order, so every column comes out sorted without a sort.
SparsePattern permute_symmetric(const SparsePattern& a,
                                const std::vector<Index>& perm);

/// P A Pᵀ together with, for every entry of it, the offset in a.row_idx()
/// of the entry it came from: the gather map that moves a value array of
/// A onto the permuted pattern.
struct PermutedPattern {
  SparsePattern pattern;
  std::vector<std::size_t> source_offset;  ///< aligned with pattern.row_idx()
};
PermutedPattern permute_symmetric_mapped(const SparsePattern& a,
                                         const std::vector<Index>& perm);

/// Validates that `perm` is a permutation of 0..n-1.
void check_permutation(const std::vector<Index>& perm, Index n);

/// Inverse permutation: result[perm[k]] = k.
std::vector<Index> invert_permutation(const std::vector<Index>& perm);

}  // namespace treemem
