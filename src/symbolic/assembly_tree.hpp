// Assembly-tree construction: relaxed node amalgamation on the elimination
// tree and the paper's node/edge weight assignment (Section VI-B).
//
// Pipeline: symmetric pattern  →  elimination tree + column counts
//           →  perfect amalgamation (fundamental supernode chains)
//           →  relaxed amalgamation (up to `r` extra nodes per supernode,
//              densest child first)
//           →  task tree with
//                 n_i = η² + 2η(µ−1)   (frontal matrix minus the CB)
//                 f_i = (µ−1)²         (contribution block)
// where η is the number of eliminated variables in the supernode and µ the
// column count of its highest (closest-to-root) node. MemReq(i) is then the
// frontal matrix plus the children contribution blocks — the in-core
// multifrontal assembly requirement.
// build_assembly_tree also fixes the FrontStructure every numeric
// factorization only reads, so refactorizations do no symbolic work.
#pragma once

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
};

/// The front structure of an assembly tree: the pattern of L and the
/// member columns of every supernode. A supernode's members form a
/// connected etree subtree under its top column (the largest member), and
/// every row of a member column is either a member or an etree ancestor of
/// the top, which already lies in L(:, top). Front s therefore has the
/// ascending rows members(s) ++ update_rows(s) — η + µ − 1 of them —
/// without any union over the member columns.
struct FrontStructure {
  SparsePattern factor;            ///< pattern of L, diagonal included
  std::vector<Index> member_ptr;   ///< node s: member_cols[ptr[s], ptr[s+1])
  std::vector<Index> member_cols;  ///< member columns, ascending per node

  /// Eliminated columns of supernode s, ascending (none for the virtual
  /// root).
  std::span<const Index> members(NodeId s) const {
    const auto i = static_cast<std::size_t>(s);
    return {member_cols.data() + member_ptr[i],
            static_cast<std::size_t>(member_ptr[i + 1] - member_ptr[i])};
  }
  /// Rows of the contribution block of s: L(:, top(s)) below the diagonal.
  std::span<const Index> update_rows(NodeId s) const {
    const auto cols = members(s);
    return cols.empty() ? std::span<const Index>{}
                        : factor.column(cols.back()).subspan(1);
  }
  /// Order of front s (0 for the virtual root).
  std::size_t front_size(NodeId s) const {
    return members(s).size() + update_rows(s).size();
  }
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
/// µ; a violation throws treemem::Error.
std::shared_ptr<const FrontStructure> build_front_structure(
    const SparsePattern& a, const AssemblyTree& assembly);

/// Amalgamation on a precomputed elimination forest: exposed separately so
/// tests can drive it with handcrafted parents/counts. The result carries
/// no front structure.
AssemblyTree amalgamate(const std::vector<Index>& parent,
                        const std::vector<Index>& counts,
                        const AssemblyTreeOptions& options = {});

}  // namespace treemem
