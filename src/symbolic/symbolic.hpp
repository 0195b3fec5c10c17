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

/// nnz(L) = sum of column counts (includes the diagonal).
std::int64_t factor_nnz(const SparsePattern& a);

}  // namespace treemem
