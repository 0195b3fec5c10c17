#include "symbolic/assembly_tree.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>

#include "symbolic/symbolic.hpp"

namespace treemem {

namespace {

/// Union-find over etree columns; the representative carries the supernode
/// accumulators (η, and the top column whose count is µ).
class SupernodeForest {
 public:
  SupernodeForest(const std::vector<Index>& parent,
                  const std::vector<Index>& counts)
      : parent_(parent), counts_(counts),
        rep_(parent.size()), eta_(parent.size(), 1), top_(parent.size()) {
    std::iota(rep_.begin(), rep_.end(), Index{0});
    std::iota(top_.begin(), top_.end(), Index{0});
  }

  Index find(Index v) {
    Index root = v;
    while (rep_[static_cast<std::size_t>(root)] != root) {
      root = rep_[static_cast<std::size_t>(root)];
    }
    while (rep_[static_cast<std::size_t>(v)] != root) {
      const Index next = rep_[static_cast<std::size_t>(v)];
      rep_[static_cast<std::size_t>(v)] = root;
      v = next;
    }
    return root;
  }

  /// Merges the supernode of `child_col` into the supernode of `top_col`
  /// (which stays the representative top).
  void merge_into(Index top_col, Index child_col) {
    const Index a = find(top_col);
    const Index b = find(child_col);
    TM_ASSERT(a != b, "merging a supernode with itself");
    rep_[static_cast<std::size_t>(b)] = a;
    eta_[static_cast<std::size_t>(a)] += eta_[static_cast<std::size_t>(b)];
  }

  Index eta(Index v) { return eta_[static_cast<std::size_t>(find(v))]; }
  Index top(Index v) { return top_[static_cast<std::size_t>(find(v))]; }
  Index mu(Index v) {
    return counts_[static_cast<std::size_t>(top(v))];
  }

  /// Supernode parent column: etree parent of the top column.
  Index parent_col(Index v) {
    return parent_[static_cast<std::size_t>(top(v))];
  }

 private:
  const std::vector<Index>& parent_;
  const std::vector<Index>& counts_;
  std::vector<Index> rep_;
  std::vector<Index> eta_;
  std::vector<Index> top_;
};

/// Chain-merge bounds as unit fractions of the parent's front order: at
/// most 1/10 of it may be rows the child's contribution block lacks, and
/// the child may bring at most 1/10 of it in pivots.
constexpr std::int64_t kChainShareDivisor = 10;
constexpr std::int64_t kChainCapDivisor = 10;

}  // namespace

AssemblyTree amalgamate(const std::vector<Index>& parent,
                        const std::vector<Index>& counts,
                        const AssemblyTreeOptions& options) {
  const Index n = static_cast<Index>(parent.size());
  TM_CHECK(counts.size() == parent.size(),
           "amalgamate: counts/parent size mismatch");
  TM_CHECK(options.relax >= 0, "amalgamate: negative relax");
  TM_CHECK(n >= 1, "amalgamate: empty forest");
  for (Index j = 0; j < n; ++j) {
    TM_CHECK(counts[static_cast<std::size_t>(j)] >= 1,
             "amalgamate: column count below 1 at column " << j);
    const Index p = parent[static_cast<std::size_t>(j)];
    TM_CHECK(p == -1 || (p >= 0 && p < n && p != j),
             "amalgamate: bad parent " << p << " of " << j);
  }

  SupernodeForest forest(parent, counts);

  // Child lists of the elimination forest, ascending, in one array:
  // children of p are child_list[child_ptr[p], child_ptr[p + 1]).
  std::vector<Index> child_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<Index> roots;
  for (Index j = 0; j < n; ++j) {
    const Index p = parent[static_cast<std::size_t>(j)];
    if (p == -1) {
      roots.push_back(j);
    } else {
      ++child_ptr[static_cast<std::size_t>(p) + 1];
    }
  }
  std::partial_sum(child_ptr.begin(), child_ptr.end(), child_ptr.begin());
  std::vector<Index> child_list(static_cast<std::size_t>(child_ptr.back()));
  {
    std::vector<Index> cursor(child_ptr.begin(), child_ptr.end() - 1);
    for (Index j = 0; j < n; ++j) {
      const Index p = parent[static_cast<std::size_t>(j)];
      if (p != -1) {
        child_list[static_cast<std::size_t>(
            cursor[static_cast<std::size_t>(p)]++)] = j;
      }
    }
  }
  const auto children = [&](Index p) {
    const auto i = static_cast<std::size_t>(p);
    return std::span<const Index>(child_list.data() + child_ptr[i],
                                  static_cast<std::size_t>(child_ptr[i + 1] -
                                                           child_ptr[i]));
  };

  const std::vector<Index> post = etree_postorder(parent);

  // Perfect amalgamation: a node that is the only child of its parent and
  // whose parent's column has exactly one entry less is merged — these are
  // the fundamental supernodes the paper always realizes.
  if (options.perfect) {
    for (const Index j : post) {
      const Index p = parent[static_cast<std::size_t>(j)];
      if (p != -1 && children(p).size() == 1 &&
          counts[static_cast<std::size_t>(p)] ==
              counts[static_cast<std::size_t>(j)] - 1) {
        forest.merge_into(p, j);
      }
    }
  }

  // Relaxed amalgamation, bottom-up: while the supernode holds no more than
  // `relax` amalgamated nodes (η ≤ relax), merge its densest child
  // supernode (largest µ; ties toward the smaller top column).
  if (options.relax > 0) {
    // Child supernodes of a supernode s = supernodes of etree children of
    // every member column... iterating over the top's subtree is enough if
    // we recompute lazily; we rebuild the candidate list on each merge.
    std::vector<Index> stack;
    for (const Index j : post) {
      if (forest.top(j) != j) {
        continue;  // only process each supernode once, at its top column
      }
      while (forest.eta(j) <= options.relax) {
        // Collect current child supernodes of the supernode of j.
        Index best = -1;
        Index best_mu = -1;
        // Children of every member column are candidates; to stay O(subtree)
        // we scan the etree children of member columns. Members are exactly
        // the columns whose find() equals find(j); enumerating them all is
        // expensive, so we exploit that supernodes are connected: walk the
        // member set via a stack over etree children that are in-supernode.
        stack.assign(1, j);
        while (!stack.empty()) {
          const Index m = stack.back();
          stack.pop_back();
          for (const Index c : children(m)) {
            if (forest.find(c) == forest.find(j)) {
              stack.push_back(c);
            } else {
              const Index cmu = forest.mu(c);
              const Index ctop = forest.top(c);
              if (cmu > best_mu || (cmu == best_mu && ctop < best)) {
                best = ctop;
                best_mu = cmu;
              }
            }
          }
        }
        if (best == -1) {
          break;  // no child supernodes left
        }
        forest.merge_into(j, best);
      }
    }
  }

  // Chain merge, bottom-up: fold the only child supernode c into its
  // parent p when c's contribution block already covers all but a small
  // share of p's front (η_p + µ_p − µ_c new rows ≤ 1/kChainShareDivisor of
  // p's order η_p + µ_p − 1) and c's accumulated η stays a small share of
  // that order too (the growth cap). The merged front is the parent's
  // front grown by c's η pivots: one front instead of a chain of fronts
  // that each zero, extend-add and store nearly the same block.
  if (options.relax > 0 && options.merge_chains) {
    // Child supernodes per supernode (by top column) after the relaxed
    // pass. A chain merge never changes the child count of a supernode
    // still to be visited: it joins a supernode with its only child.
    std::vector<Index> child_count(static_cast<std::size_t>(n), 0);
    std::vector<Index> only_child(static_cast<std::size_t>(n), -1);
    for (Index j = 0; j < n; ++j) {
      const Index p = parent[static_cast<std::size_t>(j)];
      if (p != -1 && forest.find(p) != forest.find(j)) {
        const auto t = static_cast<std::size_t>(forest.top(p));
        ++child_count[t];
        only_child[t] = j;  // j left its supernode, so it is the top
      }
    }
    for (const Index j : post) {
      if (forest.top(j) != j || child_count[static_cast<std::size_t>(j)] != 1) {
        continue;
      }
      const Index c = only_child[static_cast<std::size_t>(j)];
      const std::int64_t order = std::int64_t{forest.eta(j)} + forest.mu(j) - 1;
      const std::int64_t new_rows =
          std::int64_t{forest.eta(j)} + forest.mu(j) - forest.mu(c);
      if (kChainShareDivisor * new_rows <= order &&
          kChainCapDivisor * std::int64_t{forest.eta(c)} <= order) {
        forest.merge_into(j, c);
      }
    }
  }

  // Materialize the supernode tree. The task Tree needs parents before
  // children, and in a postorder ancestors come last — so number the top
  // columns in *reverse* postorder.
  std::vector<Index> unique_tops;
  for (auto it = post.rbegin(); it != post.rend(); ++it) {
    if (forest.top(*it) == *it) {
      unique_tops.push_back(*it);
    }
  }

  AssemblyTree result;
  result.columns = n;
  result.has_virtual_root = roots.size() > 1;

  std::vector<NodeId> tree_id(static_cast<std::size_t>(n), kNoNode);
  std::vector<NodeId> tree_parent;
  std::vector<Weight> file;
  std::vector<Weight> work;

  if (result.has_virtual_root) {
    tree_parent.push_back(kNoNode);
    file.push_back(0);
    work.push_back(0);
    result.eta.push_back(0);
    result.mu.push_back(0);
  }

  for (const Index t : unique_tops) {
    const NodeId id = static_cast<NodeId>(tree_parent.size());
    tree_id[static_cast<std::size_t>(t)] = id;
    const Index parent_col = forest.parent_col(t);
    NodeId parent_id;
    if (parent_col == -1) {
      parent_id = result.has_virtual_root ? 0 : kNoNode;
    } else {
      parent_id = tree_id[static_cast<std::size_t>(forest.top(parent_col))];
      TM_ASSERT(parent_id != kNoNode,
                "assembly tree: parent supernode not yet numbered");
    }
    const Weight eta = forest.eta(t);
    const Weight mu = forest.mu(t);
    tree_parent.push_back(parent_id);
    file.push_back((mu - 1) * (mu - 1));
    work.push_back(eta * eta + 2 * eta * (mu - 1));
    result.eta.push_back(static_cast<Index>(eta));
    result.mu.push_back(static_cast<Index>(mu));
  }

  result.tree = Tree(std::move(tree_parent), std::move(file), std::move(work));
  result.supernode_of.assign(static_cast<std::size_t>(n), kNoNode);
  for (Index j = 0; j < n; ++j) {
    result.supernode_of[static_cast<std::size_t>(j)] =
        tree_id[static_cast<std::size_t>(forest.top(j))];
  }
  return result;
}

namespace {

void check_symbolic_input(const SparsePattern& a, const char* who) {
  TM_CHECK(a.is_square(), who << ": pattern must be square");
  TM_CHECK(a.is_symmetric(),
           who << ": pattern must be symmetric (symmetrize first)");
  TM_CHECK(a.has_full_diagonal(), who << ": pattern must have a full diagonal");
}

std::shared_ptr<const FrontStructure> make_front_structure(
    const SparsePattern& a, const std::vector<Index>& parent,
    const std::vector<Index>& counts, const AssemblyTree& assembly) {
  const Index n = a.cols();
  const Tree& tree = assembly.tree;
  const auto nodes = static_cast<std::size_t>(tree.size());
  TM_CHECK(assembly.columns == n &&
               assembly.supernode_of.size() == static_cast<std::size_t>(n) &&
               assembly.eta.size() == nodes && assembly.mu.size() == nodes,
           "front structure: assembly tree does not match the "
               << n << "-column pattern");

  // Members by supernode: a counting sort over ascending columns keeps
  // every member list ascending. The virtual root holds no column.
  auto fronts = std::make_shared<FrontStructure>();
  const NodeId first_real = assembly.has_virtual_root ? 1 : 0;
  fronts->member_ptr.assign(nodes + 1, 0);
  for (const NodeId s : assembly.supernode_of) {
    TM_CHECK(s >= first_real && s < tree.size(),
             "front structure: column mapped to invalid supernode " << s);
    ++fronts->member_ptr[static_cast<std::size_t>(s) + 1];
  }
  std::partial_sum(fronts->member_ptr.begin(), fronts->member_ptr.end(),
                   fronts->member_ptr.begin());
  fronts->member_cols.resize(static_cast<std::size_t>(n));
  std::vector<Index> cursor(fronts->member_ptr.begin(),
                            fronts->member_ptr.end() - 1);
  for (Index j = 0; j < n; ++j) {
    const auto s = static_cast<std::size_t>(
        assembly.supernode_of[static_cast<std::size_t>(j)]);
    fronts->member_cols[static_cast<std::size_t>(cursor[s]++)] = j;
  }

  // Connectivity, which makes the front rows below exact: the only column
  // whose etree parent leaves its supernode is the top (the largest member,
  // which always leaves), and that parent lies in the parent supernode.
  // Supernodes are numbered parents first, so a descending sweep visits
  // children before their parent (the rows below and the supernodal solve
  // rely on it).
  for (Index j = 0; j < n; ++j) {
    const NodeId s = assembly.supernode_of[static_cast<std::size_t>(j)];
    const Index p = parent[static_cast<std::size_t>(j)];
    const NodeId ps =
        p != -1 ? assembly.supernode_of[static_cast<std::size_t>(p)]
                : (assembly.has_virtual_root ? 0 : kNoNode);
    TM_CHECK(ps == s ||
                 (j == fronts->members(s).back() && tree.parent(s) == ps),
             "front structure: supernode " << s << " is not a connected etree "
                                          << "subtree under its top column");
  }
  TM_CHECK(!assembly.has_virtual_root ||
               (tree.file_size(0) == 0 && tree.work_size(0) == 0),
           "front structure: the virtual root carries weights");
  fronts->row_ptr.assign(nodes + 1, 0);
  fronts->value_ptr.assign(nodes + 1, 0);
  for (NodeId s = 0; s < tree.size(); ++s) {
    const auto i = static_cast<std::size_t>(s);
    const auto cols = fronts->members(s);
    const Weight eta = assembly.eta[i];
    const Weight mu = assembly.mu[i];
    if (s >= first_real) {
      TM_CHECK(!cols.empty() && eta == static_cast<Weight>(cols.size()) &&
                   mu == counts[static_cast<std::size_t>(cols.back())],
               "front structure: eta/mu of supernode "
                   << s << " do not match its member columns");
      TM_CHECK(tree.file_size(s) == (mu - 1) * (mu - 1) &&
                   tree.work_size(s) == eta * eta + 2 * eta * (mu - 1),
               "front structure: the weights of supernode "
                   << s << " are not the Eq. 1 weights of its eta and mu");
    }
    TM_CHECK(tree.parent(s) < s, "front structure: supernode "
                                     << s << " is numbered before its parent "
                                     << tree.parent(s));
    const Weight m = cols.empty() ? 0 : eta + mu - 1;
    fronts->row_ptr[i + 1] = fronts->row_ptr[i] + m;
    fronts->value_ptr[i + 1] =
        fronts->value_ptr[i] + (m == 0 ? 0 : eta * m - eta * (eta - 1) / 2);
  }
  fronts->factor_nnz =
      std::accumulate(counts.begin(), counts.end(), std::int64_t{0});

  // Front rows, children first: the members, then the rows above the top
  // that the members' columns of A or the children's contribution blocks
  // reach — exactly L(:, top) below the diagonal, since L(i, top) ≠ 0 iff
  // A(i, k) ≠ 0 for some k in the etree subtree under top. A row at most
  // top is a member (it lies on an etree path inside the supernode).
  fronts->row_idx.resize(static_cast<std::size_t>(fronts->row_ptr.back()));
  std::vector<NodeId> mark(static_cast<std::size_t>(n), kNoNode);
  std::vector<Index> above;
  for (NodeId s = tree.size(); s-- > first_real;) {
    const auto cols = fronts->members(s);
    const Index top = cols.back();
    above.clear();
    auto reach = [&](Index r) {
      if (r > top && mark[static_cast<std::size_t>(r)] != s) {
        mark[static_cast<std::size_t>(r)] = s;
        above.push_back(r);
      }
    };
    for (const Index j : cols) {
      const auto col = a.column(j);
      std::for_each(std::upper_bound(col.begin(), col.end(), top), col.end(),
                    reach);
    }
    for (const NodeId c : tree.children(s)) {
      const auto cb = fronts->update_rows(c);
      std::for_each(cb.begin(), cb.end(), reach);
    }
    std::sort(above.begin(), above.end());
    const auto begin = static_cast<std::size_t>(
        fronts->row_ptr[static_cast<std::size_t>(s)]);
    TM_ASSERT(cols.size() + above.size() == fronts->front_size(s),
              "front structure: front " << s << " has "
                                        << cols.size() + above.size()
                                        << " rows, its column count says "
                                        << fronts->front_size(s));
    std::copy(cols.begin(), cols.end(), fronts->row_idx.begin() + begin);
    std::copy(above.begin(), above.end(),
              fronts->row_idx.begin() + begin + cols.size());
  }
  return fronts;
}

}  // namespace

std::shared_ptr<const FrontStructure> build_front_structure(
    const SparsePattern& a, const AssemblyTree& assembly) {
  check_symbolic_input(a, "build_front_structure");
  const std::vector<Index> parent = elimination_tree(a);
  return make_front_structure(a, parent, column_counts(a, parent), assembly);
}

AssemblyTree build_assembly_tree(const SparsePattern& a,
                                 const AssemblyTreeOptions& options) {
  check_symbolic_input(a, "build_assembly_tree");
  const std::vector<Index> parent = elimination_tree(a);
  const std::vector<Index> counts = column_counts(a, parent);
  AssemblyTree assembly = amalgamate(parent, counts, options);
  assembly.fronts = make_front_structure(a, parent, counts, assembly);
  return assembly;
}

}  // namespace treemem
