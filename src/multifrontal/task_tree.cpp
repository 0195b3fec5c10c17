#include "multifrontal/task_tree.hpp"

#include <algorithm>

namespace treemem {

TaskTree contract_subtrees(const Tree& tree, const std::vector<double>& flops,
                           const Traversal& witness, int workers) {
  const auto p = static_cast<std::size_t>(tree.size());
  TM_CHECK(workers >= 1, "contract_subtrees: need at least one worker");
  TM_CHECK(flops.size() == p, "contract_subtrees: flops size mismatch");
  TM_CHECK(witness.size() == p,
           "contract_subtrees: the witness must list every supernode");
  TaskTree tasks;
  tasks.offsets.push_back(0);
  if (p == 0) {
    return tasks;
  }

  // Witness positions, validated as a bottom-up permutation.
  std::vector<std::size_t> pos(p, p);
  for (std::size_t k = 0; k < p; ++k) {
    const NodeId v = witness[k];
    TM_CHECK(v >= 0 && static_cast<std::size_t>(v) < p &&
                 pos[static_cast<std::size_t>(v)] == p,
             "contract_subtrees: witness is not a permutation of the tree");
    pos[static_cast<std::size_t>(v)] = k;
  }

  // Subtree aggregates, children before parents: size, summed flops and
  // the earliest witness position of any member.
  std::vector<std::size_t> size(p, 1);
  std::vector<double> sum(flops);
  std::vector<std::size_t> first(pos);
  const std::vector<NodeId>& top_down = tree.top_down_order();
  for (auto it = top_down.rbegin(); it != top_down.rend(); ++it) {
    const auto v = static_cast<std::size_t>(*it);
    const NodeId parent = tree.parent(*it);
    if (parent == kNoNode) {
      continue;
    }
    const auto u = static_cast<std::size_t>(parent);
    TM_CHECK(pos[v] < pos[u], "contract_subtrees: witness runs supernode "
                                  << parent << " before its child " << v);
    size[u] += size[v];
    sum[u] += sum[v];
    first[u] = std::min(first[u], first[v]);
  }

  // Top down: a supernode joins the task of a contracted ancestor, else
  // it roots a task of its own — a subtree task when it qualifies.
  const double cutoff = sum[static_cast<std::size_t>(tree.root())] /
                        (2.0 * static_cast<double>(workers));
  std::vector<NodeId> owner(p);
  std::vector<char> contracted(p, 0);
  for (const NodeId v : top_down) {
    const auto i = static_cast<std::size_t>(v);
    const NodeId parent = tree.parent(v);
    if (parent != kNoNode && contracted[static_cast<std::size_t>(parent)]) {
      owner[i] = owner[static_cast<std::size_t>(parent)];
      contracted[i] = 1;
      continue;
    }
    owner[i] = v;
    contracted[i] = size[i] > 1 && sum[i] <= cutoff &&
                    pos[i] - first[i] + 1 == size[i];
  }

  // Number the tasks by root supernode and lay out their front lists.
  std::vector<NodeId> task_of(p, kNoNode);
  NodeId count = 0;
  for (std::size_t v = 0; v < p; ++v) {
    if (owner[v] == static_cast<NodeId>(v)) {
      task_of[v] = count++;
      tasks.offsets.push_back(tasks.offsets.back() +
                              (contracted[v] ? size[v] : 1));
    }
  }
  tasks.fronts.resize(p);
  std::vector<std::size_t> cursor(tasks.offsets.begin(),
                                  tasks.offsets.end() - 1);
  tasks.witness.reserve(static_cast<std::size_t>(count));
  for (const NodeId v : witness) {
    const NodeId root = owner[static_cast<std::size_t>(v)];
    const NodeId t = task_of[static_cast<std::size_t>(root)];
    tasks.fronts[cursor[static_cast<std::size_t>(t)]++] = v;
    if (v == root) {
      tasks.witness.push_back(t);  // a subtree's root closes its segment
    }
  }

  // Weights: a one-front task keeps its supernode's; a subtree task gets
  // the Eq. 1 peak of its fronts in run order as its MemReq.
  std::vector<NodeId> parents(static_cast<std::size_t>(count));
  std::vector<Weight> files(static_cast<std::size_t>(count));
  std::vector<Weight> works(static_cast<std::size_t>(count));
  tasks.durations.resize(static_cast<std::size_t>(count));
  for (NodeId t = 0; t < count; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    const NodeId root = tasks.root_of(t);
    const auto ri = static_cast<std::size_t>(root);
    const NodeId parent = tree.parent(root);
    parents[ti] = parent == kNoNode
                      ? kNoNode
                      : task_of[static_cast<std::size_t>(parent)];
    files[ti] = tree.file_size(root);
    tasks.durations[ti] = contracted[ri] ? sum[ri] : flops[ri];
    if (!contracted[ri]) {
      works[ti] = tree.work_size(root);
      continue;
    }
    Weight resident = 0;
    Weight peak = 0;
    for (const NodeId u : tasks.fronts_of(t)) {
      const Weight transient =
          resident + tree.work_size(u) + tree.file_size(u);
      peak = std::max(peak, transient);
      resident += tree.file_size(u) - tree.child_file_sum(u);
    }
    works[ti] = std::max(peak, files[ti]) - files[ti];
  }
  tasks.tree = Tree(std::move(parents), std::move(files), std::move(works));
  return tasks;
}

}  // namespace treemem
