// The task tree factor_parallel hands the executor — internal to
// multifrontal/numeric_parallel.cpp, its tests and its bench.
//
// The paper's model treats any subtree as one node: its MemReq is the
// Eq. 1 peak of the traversal that runs it, and its output file is the
// subtree root's f_i. factor_parallel uses exactly that contraction to
// stop paying a scheduler round trip per tiny front. Every maximal subtree
// with more than one front whose summed flops are at most total / (2·w)
// becomes a single task, provided the serial witness runs it contiguously.
// The task runs its fronts on one lane in witness order. Fronts above the
// cutoff stay one task each.
//
// The contiguity rule is what keeps the memory model exact. A subtree the
// witness runs contiguously contributes, while it runs, exactly its own
// restricted peak on top of the files resident outside it, so the witness
// with each such subtree replaced by its task has the witness's Eq. 1 peak.
// Lookahead admission over the task tree is therefore stall-free at any
// budget that covers the witness peak, non-postorder MinMem witnesses
// included. In a postorder every subtree is contiguous.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/traversal.hpp"
#include "tree/tree.hpp"

namespace treemem {

struct TaskTree {
  /// Task t of the contracted tree has f = f of its root supernode and
  /// n = (Eq. 1 peak of its fronts in run order) − f, so MemReq(t) is that
  /// peak. A subtree task is a leaf; a one-front task keeps its
  /// supernode's weights. Tasks are numbered in increasing order of their
  /// root supernodes.
  Tree tree;
  /// Per task, the summed estimated flops of its fronts: the executor's
  /// durations, so critical-path priority sees the real work.
  std::vector<double> durations;
  /// The serial witness with every contracted subtree replaced by its task;
  /// same Eq. 1 peak as the witness.
  Traversal witness;
  /// Fronts of task t in run order: fronts[offsets[t], offsets[t + 1]).
  /// The last one is the task's root supernode.
  std::vector<std::size_t> offsets;
  Traversal fronts;

  NodeId size() const { return tree.size(); }
  std::span<const NodeId> fronts_of(NodeId t) const {
    const auto i = static_cast<std::size_t>(t);
    return {fronts.data() + offsets[i], fronts.data() + offsets[i + 1]};
  }
  NodeId root_of(NodeId t) const {
    return fronts[offsets[static_cast<std::size_t>(t) + 1] - 1];
  }
};

/// Contracts `tree` for a run on `workers` lanes. `flops` holds the
/// estimated flops per supernode (positive); `witness` is the plan's
/// bottom-up traversal of all supernodes. Throws treemem::Error if the
/// witness is not a bottom-up permutation of the tree's nodes.
TaskTree contract_subtrees(const Tree& tree, const std::vector<double>& flops,
                           const Traversal& witness, int workers);

}  // namespace treemem
