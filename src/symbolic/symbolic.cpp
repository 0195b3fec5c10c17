#include "symbolic/symbolic.hpp"

#include <algorithm>
#include <functional>
#include <numeric>

namespace treemem {

std::vector<Index> elimination_tree(const SparsePattern& a) {
  TM_CHECK(a.is_square(), "elimination_tree: pattern must be square");
  const Index n = a.cols();
  std::vector<Index> parent(static_cast<std::size_t>(n), -1);
  std::vector<Index> ancestor(static_cast<std::size_t>(n), -1);

  for (Index j = 0; j < n; ++j) {
    for (const Index i : a.column(j)) {
      // Walk from each below-diagonal entry's row... in column terms: for
      // entry (i, j) with i < j (upper part = row i of the lower part),
      // climb from i toward j, compressing paths.
      Index k = i;
      if (k >= j) {
        continue;
      }
      while (k != -1 && k != j) {
        const Index next = ancestor[static_cast<std::size_t>(k)];
        ancestor[static_cast<std::size_t>(k)] = j;  // path compression
        if (next == -1) {
          parent[static_cast<std::size_t>(k)] = j;
        }
        k = next;
      }
    }
  }
  return parent;
}

std::vector<Index> etree_postorder(const std::vector<Index>& parent) {
  const Index n = static_cast<Index>(parent.size());
  // Build child lists (increasing index order for determinism).
  std::vector<Index> head(static_cast<std::size_t>(n), -1);
  std::vector<Index> next(static_cast<std::size_t>(n), -1);
  std::vector<Index> roots;
  for (Index v = n; v-- > 0;) {  // reverse so lists come out ascending
    const Index p = parent[static_cast<std::size_t>(v)];
    if (p == -1) {
      roots.push_back(v);
    } else {
      TM_CHECK(p >= 0 && p < n, "etree_postorder: bad parent " << p);
      next[static_cast<std::size_t>(v)] = head[static_cast<std::size_t>(p)];
      head[static_cast<std::size_t>(p)] = v;
    }
  }
  std::reverse(roots.begin(), roots.end());  // ascending root order

  std::vector<Index> post;
  post.reserve(static_cast<std::size_t>(n));
  std::vector<Index> stack;
  std::vector<Index> child_cursor(static_cast<std::size_t>(n));
  for (const Index r : roots) {
    stack.push_back(r);
    child_cursor[static_cast<std::size_t>(r)] = head[static_cast<std::size_t>(r)];
    while (!stack.empty()) {
      const Index v = stack.back();
      const Index c = child_cursor[static_cast<std::size_t>(v)];
      if (c == -1) {
        post.push_back(v);
        stack.pop_back();
      } else {
        child_cursor[static_cast<std::size_t>(v)] =
            next[static_cast<std::size_t>(c)];
        stack.push_back(c);
        child_cursor[static_cast<std::size_t>(c)] =
            head[static_cast<std::size_t>(c)];
      }
    }
  }
  TM_CHECK(post.size() == static_cast<std::size_t>(n),
           "etree_postorder: forest traversal lost nodes");
  return post;
}

namespace {

/// Visits every entry of L as visit(i, k), row by row (i ascending), the
/// diagonal of row i first. Row subtrees: the nonzeros of row i of L are
/// exactly the nodes on etree paths from each j (A_ij != 0, j < i) up
/// toward i. Each step of the walk visits a distinct L-entry, so total
/// work is O(nnz(L)).
template <typename Visit>
void for_each_factor_entry(const SparsePattern& a,
                           const std::vector<Index>& parent, Visit&& visit) {
  const Index n = a.cols();
  TM_CHECK(a.is_square() && parent.size() == static_cast<std::size_t>(n),
           "symbolic: pattern must be square and match the parent array");
  std::vector<Index> mark(static_cast<std::size_t>(n), -1);
  for (Index i = 0; i < n; ++i) {
    mark[static_cast<std::size_t>(i)] = i;
    visit(i, i);
    for (const Index j : a.column(i)) {
      if (j >= i) {
        break;  // rows are sorted: the rest lie on or below the diagonal
      }
      Index k = j;
      while (mark[static_cast<std::size_t>(k)] != i) {
        mark[static_cast<std::size_t>(k)] = i;
        visit(i, k);  // L(i, k) != 0
        k = parent[static_cast<std::size_t>(k)];
        TM_ASSERT(k != -1, "row subtree escaped the forest at row " << i);
      }
    }
  }
}

}  // namespace

std::vector<Index> column_counts(const SparsePattern& a,
                                 const std::vector<Index>& parent) {
  std::vector<Index> counts(static_cast<std::size_t>(a.cols()), 0);
  for_each_factor_entry(a, parent, [&](Index, Index k) {
    ++counts[static_cast<std::size_t>(k)];
  });
  return counts;
}

SparsePattern symbolic_cholesky(const SparsePattern& a,
                                const std::vector<Index>& parent,
                                const std::vector<Index>& counts) {
  const Index n = a.cols();
  TM_CHECK(counts.size() == static_cast<std::size_t>(n),
           "symbolic_cholesky: counts size mismatch");
  std::vector<std::int64_t> col_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::inclusive_scan(counts.begin(), counts.end(), col_ptr.begin() + 1,
                      std::plus<>(), std::int64_t{0});
  // Rows arrive in increasing order, so each column fills up sorted, its
  // diagonal first.
  std::vector<Index> row_idx(static_cast<std::size_t>(col_ptr.back()));
  std::vector<std::int64_t> next(col_ptr.begin(), col_ptr.end() - 1);
  for_each_factor_entry(a, parent, [&](Index i, Index k) {
    std::int64_t& slot = next[static_cast<std::size_t>(k)];
    TM_ASSERT(slot < col_ptr[static_cast<std::size_t>(k) + 1],
              "symbolic_cholesky: column " << k << " overflows its count");
    row_idx[static_cast<std::size_t>(slot++)] = i;
  });
  TM_ASSERT(std::equal(next.begin(), next.end(), col_ptr.begin() + 1),
            "symbolic_cholesky: counts exceed the factor's columns");
  return SparsePattern(n, n, std::move(col_ptr), std::move(row_idx));
}

SparsePattern symbolic_cholesky(const SparsePattern& a) {
  TM_CHECK(a.is_square(), "symbolic_cholesky: pattern must be square");
  const std::vector<Index> parent = elimination_tree(a);
  return symbolic_cholesky(a, parent, column_counts(a, parent));
}

std::int64_t factor_nnz(const SparsePattern& a) {
  const std::vector<Index> parent = elimination_tree(a);
  const std::vector<Index> counts = column_counts(a, parent);
  return std::accumulate(counts.begin(), counts.end(), std::int64_t{0});
}

}  // namespace treemem
