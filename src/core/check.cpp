#include "core/check.hpp"

#include <sstream>

namespace treemem {

namespace {

/// Validates that `order` is a permutation of 0..p-1; returns the inverse
/// permutation (position of each node).
std::vector<NodeId> positions_of(const Tree& tree, const Traversal& order) {
  const auto p = static_cast<std::size_t>(tree.size());
  TM_CHECK(order.size() == p, "traversal has " << order.size()
                                               << " entries for a tree of "
                                               << p << " nodes");
  std::vector<NodeId> pos(p, kNoNode);
  for (std::size_t t = 0; t < p; ++t) {
    const NodeId u = order[t];
    TM_CHECK(u >= 0 && static_cast<std::size_t>(u) < p,
             "traversal step " << t << " names invalid node " << u);
    TM_CHECK(pos[static_cast<std::size_t>(u)] == kNoNode,
             "node " << u << " appears twice in the traversal");
    pos[static_cast<std::size_t>(u)] = static_cast<NodeId>(t);
  }
  return pos;
}

}  // namespace

Weight traversal_peak(const Tree& tree, const Traversal& order) {
  const auto pos = positions_of(tree, order);
  for (NodeId u = 0; u < tree.size(); ++u) {
    const NodeId par = tree.parent(u);
    if (par != kNoNode) {
      TM_CHECK(pos[static_cast<std::size_t>(par)] < pos[static_cast<std::size_t>(u)],
               "out-tree precedence violated: node " << u
                   << " runs before its parent " << par);
    }
  }

  // resident = sum of input files of ready nodes (parent executed, node not).
  Weight resident = tree.file_size(tree.root());
  Weight peak = resident;
  for (const NodeId u : order) {
    const Weight transient = resident + tree.work_size(u) + tree.child_file_sum(u);
    peak = std::max(peak, transient);
    resident += tree.child_file_sum(u) - tree.file_size(u);
  }
  TM_ASSERT(resident == 0, "resident files must drain to zero, got " << resident);
  return peak;
}

Weight in_tree_traversal_peak(const Tree& tree, const Traversal& order) {
  const auto pos = positions_of(tree, order);
  for (NodeId u = 0; u < tree.size(); ++u) {
    const NodeId par = tree.parent(u);
    if (par != kNoNode) {
      TM_CHECK(pos[static_cast<std::size_t>(u)] < pos[static_cast<std::size_t>(par)],
               "in-tree precedence violated: node " << par
                   << " runs before its child " << u);
    }
  }

  // resident = sum of output files of executed nodes whose parent has not
  // executed yet (produced but unconsumed contribution blocks).
  Weight resident = 0;
  Weight peak = 0;
  for (const NodeId u : order) {
    // While x executes, its children files are still resident and n_x + f_x
    // are live on top of them.
    const Weight transient = resident + tree.work_size(u) + tree.file_size(u);
    peak = std::max(peak, transient);
    resident += tree.file_size(u) - tree.child_file_sum(u);
  }
  TM_ASSERT(resident == tree.file_size(tree.root()),
            "in-tree residency must end at f_root");
  peak = std::max(peak, resident);
  return peak;
}

CheckResult check_out_of_core(const Tree& tree, const IoSchedule& schedule,
                              Weight memory) {
  CheckResult result;
  const auto p = static_cast<std::size_t>(tree.size());
  const auto& order = schedule.order;
  if (order.size() != p) {
    result.reason = "traversal size mismatch";
    return result;
  }

  // Group write events by step.
  std::vector<std::vector<NodeId>> writes_at(p);
  for (const IoWrite& w : schedule.writes) {
    if (w.step < 0 || static_cast<std::size_t>(w.step) >= p || w.node < 0 ||
        static_cast<std::size_t>(w.node) >= p) {
      result.reason = "write event out of range";
      return result;
    }
    writes_at[static_cast<std::size_t>(w.step)].push_back(w.node);
  }

  std::vector<char> executed(p, 0);
  std::vector<char> ready(p, 0);
  std::vector<char> written(p, 0);
  ready[static_cast<std::size_t>(tree.root())] = 1;
  Weight avail = memory - tree.file_size(tree.root());
  Weight io = 0;
  Weight peak = tree.file_size(tree.root());

  if (avail < 0) {
    result.reason = "root input file does not fit in memory";
    result.fail_step = 0;
    return result;
  }

  for (std::size_t t = 0; t < p; ++t) {
    // τ events scheduled at this step: move files to secondary memory.
    for (const NodeId w : writes_at[t]) {
      // The file must already be produced (node ready, i.e. parent executed)
      // and not yet consumed or already written.
      if (!ready[static_cast<std::size_t>(w)] ||
          written[static_cast<std::size_t>(w)]) {
        std::ostringstream oss;
        oss << "step " << t << ": cannot write file of node " << w
            << " (not resident)";
        result.reason = oss.str();
        result.fail_step = static_cast<NodeId>(t);
        return result;
      }
      written[static_cast<std::size_t>(w)] = 1;
      avail += tree.file_size(w);
      io += tree.file_size(w);
    }

    const NodeId u = order[t];
    if (u < 0 || static_cast<std::size_t>(u) >= p ||
        executed[static_cast<std::size_t>(u)] ||
        !ready[static_cast<std::size_t>(u)]) {
      std::ostringstream oss;
      oss << "step " << t << ": node " << u << " is not ready";
      result.reason = oss.str();
      result.fail_step = static_cast<NodeId>(t);
      return result;
    }
    if (written[static_cast<std::size_t>(u)]) {
      // Read the input file back just before execution.
      written[static_cast<std::size_t>(u)] = 0;
      avail -= tree.file_size(u);
      if (avail < 0) {
        std::ostringstream oss;
        oss << "step " << t << ": no room to read back file of node " << u;
        result.reason = oss.str();
        result.fail_step = static_cast<NodeId>(t);
        return result;
      }
    }
    if (tree.mem_req(u) > avail + tree.file_size(u)) {
      std::ostringstream oss;
      oss << "step " << t << ": node " << u << " needs " << tree.mem_req(u)
          << " but only " << avail + tree.file_size(u) << " available";
      result.reason = oss.str();
      result.fail_step = static_cast<NodeId>(t);
      return result;
    }
    peak = std::max(peak, (memory - avail) + tree.work_size(u) +
                              tree.child_file_sum(u));
    avail += tree.file_size(u) - tree.child_file_sum(u);
    executed[static_cast<std::size_t>(u)] = 1;
    ready[static_cast<std::size_t>(u)] = 0;
    for (const NodeId c : tree.children(u)) {
      ready[static_cast<std::size_t>(c)] = 1;
    }
  }

  result.feasible = true;
  result.peak = peak;
  result.io_volume = io;
  return result;
}

CheckResult check_in_core(const Tree& tree, const Traversal& order,
                          Weight memory) {
  return check_out_of_core(tree, {order, {}}, memory);
}

}  // namespace treemem
