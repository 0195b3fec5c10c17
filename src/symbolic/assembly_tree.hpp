// Assembly-tree construction: relaxed node amalgamation on the elimination
// tree and the paper's node/edge weight assignment (Section VI-B).
//
// Pipeline: symmetric pattern  →  elimination tree + column counts
//           →  perfect amalgamation (fundamental supernode chains)
//           →  relaxed amalgamation (up to `r` extra nodes per supernode,
//              densest child first)
//           →  chain merge (r > 0 only): bottom-up, an only child
//              supernode c joins its parent p when
//                 η_p + µ_p − µ_c ≤ (η_p + µ_p − 1) / 10   (share)
//                 η_c             ≤ (η_p + µ_p − 1) / 10   (growth cap)
//              with η_c accumulated over earlier chain merges
//           →  task tree with
//                 n_i = η² + 2η(µ−1)   (frontal matrix minus the CB)
//                 f_i = (µ−1)²         (contribution block)
// where η is the number of eliminated variables in the supernode and µ the
// column count of its highest (closest-to-root) node. MemReq(i) is then the
// frontal matrix plus the children contribution blocks — the in-core
// multifrontal assembly requirement.
//
// The chain merge targets what the relaxed pass leaves behind on 3-D
// nested-dissection orderings: chains of only-child separator supernodes
// (2 to 32 pivots, fronts of up to ~1,300 rows; 103 links in chains of up
// to 18 on a 27-point 22³ grid) whose parent adds only a few rows each. Every link zeroes, extend-adds and stores nearly the same
// contribution block around little dense work; merging a link saves that
// traffic for a few padded rows. The share bound (the parent's rows the
// child's block lacks) keeps the padding small; the growth cap (the pivots
// a merged chain brings into its parent) stops a long chain from growing
// one front without bound, which keeps the Eq. 1 peaks: without the cap
// the MinMem optimum of a 256 × 48 block-tridiagonal matrix rose by 6%. Both
// bounds were picked from a sweep over {1/50, 1/20, 1/10, 1/5} (share) and
// {1/20, 1/10, 1/5, none} (cap); CHANGES.md records it. Merged supernodes
// are still connected etree subtrees, so the front rows stay members ++
// L(:, top) below the diagonal, and the Eq. 1 weights below follow the
// merged (η, µ).
// build_assembly_tree also fixes the FrontStructure every numeric
// factorization only reads, so refactorizations do no symbolic work.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "sparse/pattern.hpp"
#include "tree/tree.hpp"

namespace treemem {

struct AssemblyTreeOptions {
  /// Allowed relaxed amalgamations per node (the paper uses 1, 2, 4 and 16).
  /// 0 performs only perfect amalgamation.
  Index relax = 1;
  /// Perform perfect (fundamental supernode) amalgamation first.
  bool perfect = true;
  /// After the relaxed pass, merge pass-through chains of only-child
  /// supernodes (see the pipeline above). Acts only when relax > 0, so
  /// relax = 0 trees stay perfect.
  bool merge_chains = true;
};

/// The front structure of an assembly tree: the member columns and the
/// front rows of every supernode, and the layout of the supernodal factor
/// over them. A supernode's members form a connected etree subtree under
/// its top column (the largest member), so its front rows are the members
/// followed by the rows of L(:, top) below the diagonal — η + µ − 1 rows,
/// ascending. build_assembly_tree forms them bottom-up as the members ∪
/// the rows of A below them ∪ the children's contribution-block rows, and
/// never the column pattern of L: that pattern holds Σ column counts
/// indices, the fronts Σ front orders (one index per front row, not one
/// per factor entry).
///
/// The factor's values live in dense panels, one per supernode: η columns
/// over the front rows, column k holding front rows k..m−1 (m the front
/// order), relaxed zeros included. Panel s starts at value_ptr[s].
struct FrontStructure {
  std::vector<Index> member_ptr;      ///< node s: member_cols[ptr[s], ptr[s+1])
  std::vector<Index> member_cols;     ///< member columns, ascending per node
  std::vector<std::int64_t> row_ptr;  ///< node s: row_idx[ptr[s], ptr[s+1])
  std::vector<Index> row_idx;         ///< front rows: members ++ update rows
  std::vector<std::int64_t> value_ptr;  ///< node s: panel at values[ptr[s]]
  /// nnz(L), diagonal included: Σ column counts, the exact fill (the
  /// panels store value_ptr.back() ≥ factor_nnz entries).
  std::int64_t factor_nnz = 0;

  /// Number of supernodes (the assembly tree's nodes).
  NodeId supernodes() const {
    return static_cast<NodeId>(member_ptr.size()) - 1;
  }
  /// Eliminated columns of supernode s, ascending (none for the virtual
  /// root).
  std::span<const Index> members(NodeId s) const {
    const auto i = static_cast<std::size_t>(s);
    return {member_cols.data() + member_ptr[i],
            static_cast<std::size_t>(member_ptr[i + 1] - member_ptr[i])};
  }
  /// Front rows of supernode s, ascending: members(s) ++ update_rows(s).
  std::span<const Index> rows(NodeId s) const {
    const auto i = static_cast<std::size_t>(s);
    return {row_idx.data() + row_ptr[i],
            static_cast<std::size_t>(row_ptr[i + 1] - row_ptr[i])};
  }
  /// Rows of the contribution block of s: L(:, top(s)) below the diagonal.
  std::span<const Index> update_rows(NodeId s) const {
    return rows(s).subspan(members(s).size());
  }
  /// Order of front s (0 for the virtual root).
  std::size_t front_size(NodeId s) const { return rows(s).size(); }
  /// Offset of panel column k of supernode s in the factor's values: the
  /// columns before it hold m, m − 1, ..., m − k + 1 entries.
  std::int64_t panel_column(NodeId s, std::size_t k) const {
    const auto m = static_cast<std::int64_t>(front_size(s));
    const auto kk = static_cast<std::int64_t>(k);
    return value_ptr[static_cast<std::size_t>(s)] + kk * m - kk * (kk - 1) / 2;
  }
  /// Entries of all panels (the factor's stored values).
  std::int64_t panel_entries() const { return value_ptr.back(); }

  friend bool operator==(const FrontStructure&,
                         const FrontStructure&) = default;
};

struct AssemblyTree {
  /// The task tree in the paper's model (out-tree; use in-tree reading for
  /// the multifrontal bottom-up direction).
  Tree tree;
  /// supernode_of[j]: tree node holding elimination-tree column j. The
  /// virtual root (present iff the elimination forest had several roots)
  /// holds no column.
  std::vector<NodeId> supernode_of;
  /// Eliminated variables per tree node (η); 0 for the virtual root.
  std::vector<Index> eta;
  /// Column count of the top variable per tree node (µ); 0 for the root.
  std::vector<Index> mu;
  /// Number of etree columns (original matrix dimension).
  Index columns = 0;
  bool has_virtual_root = false;
  /// Set by build_assembly_tree (and build_front_structure); absent from
  /// amalgamate() output. Immutable and shared by every copy of the tree.
  std::shared_ptr<const FrontStructure> fronts;
};

/// Builds the assembly tree of a symmetric pattern (apply symmetrize()
/// first; the pattern must have a full diagonal).
AssemblyTree build_assembly_tree(const SparsePattern& a,
                                 const AssemblyTreeOptions& options = {});

/// Builds the front structure of `assembly` on the pattern `a` it was
/// amalgamated from (a loaded state file does). Checks that each supernode
/// is a connected etree subtree — every member's etree parent lies in the
/// same supernode, the top's in the parent supernode — with matching η and
/// µ and the Eq. 1 weights of that (η, µ); a violation throws
/// treemem::Error.
std::shared_ptr<const FrontStructure> build_front_structure(
    const SparsePattern& a, const AssemblyTree& assembly);

/// Amalgamation on a precomputed elimination forest: exposed separately so
/// tests can drive it with handcrafted parents/counts. The result carries
/// no front structure.
AssemblyTree amalgamate(const std::vector<Index>& parent,
                        const std::vector<Index>& counts,
                        const AssemblyTreeOptions& options = {});

}  // namespace treemem
