// Symbolic Cholesky factorization: elimination trees, postorderings and
// column counts of the factor L — the paper's `symbfact` substrate
// (Section VI-B).
//
// All routines take a *symmetric* pattern with a full diagonal (apply
// symmetrize() first) and treat it as the pattern of A in A = LLᵀ.
#pragma once

#include "sparse/pattern.hpp"

namespace treemem {

/// Elimination tree (Liu's algorithm with path compression): parent[j] is
/// the parent of column j, or -1 for roots. The result is a forest when the
/// graph of A is disconnected. O(nnz · α(n)).
std::vector<Index> elimination_tree(const SparsePattern& a);

/// A postorder of the forest `parent` (children before parents, each
/// subtree contiguous). Deterministic: children are visited in increasing
/// index order.
std::vector<Index> etree_postorder(const std::vector<Index>& parent);

/// Column counts of L: counts[j] = number of nonzeros in column j of L
/// *including* the diagonal — the µ of the paper's weight formulas.
/// Exact, via row-subtree traversals with marking; O(nnz(L)).
std::vector<Index> column_counts(const SparsePattern& a,
                                 const std::vector<Index>& parent);

/// Full symbolic factorization: the pattern of L, including the diagonal,
/// with every column sorted. Row-subtree fill: row i of L is the union of
/// the etree paths from each j (A_ij != 0, j < i) up to i, so visiting the
/// rows in increasing order appends each column's rows already sorted into
/// slots sized by `counts` (column_counts of the same forest). O(nnz(L)).
SparsePattern symbolic_cholesky(const SparsePattern& a,
                                const std::vector<Index>& parent,
                                const std::vector<Index>& counts);

/// The same, with the elimination tree and column counts computed here.
SparsePattern symbolic_cholesky(const SparsePattern& a);

/// nnz(L) = sum of column counts (includes the diagonal).
std::int64_t factor_nnz(const SparsePattern& a);

}  // namespace treemem
