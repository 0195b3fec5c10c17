#include "multifrontal/out_of_core.hpp"

#include <algorithm>
#include <memory>

#include "core/check.hpp"
#include "symbolic/symbolic.hpp"

namespace treemem {

namespace {

struct Block {
  std::vector<Index> rows;
  std::vector<double> values;  // dense |rows| x |rows|, column-major
  bool on_disk = false;
};

}  // namespace

OutOfCoreRunResult multifrontal_cholesky_out_of_core(
    const SymmetricMatrix& matrix, const AssemblyTree& assembly,
    const IoSchedule& schedule, Weight budget_entries, const DiskModel& disk) {
  const Index n = matrix.size();
  const Tree& tree = assembly.tree;
  TM_CHECK(assembly.columns == n, "matrix/assembly size mismatch");

  // Validate the schedule once with the reference checker at the budget...
  // using the *model* weights; real fronts are no larger, so feasibility
  // transfers to the engine.
  {
    const CheckResult check = check_out_of_core(tree, schedule, budget_entries);
    TM_CHECK(check.feasible,
             "out-of-core schedule rejected by Algorithm 2: " << check.reason);
  }

  // Which contribution blocks does the plan spill?
  std::vector<char> spills(static_cast<std::size_t>(tree.size()), 0);
  for (const IoWrite& w : schedule.writes) {
    spills[static_cast<std::size_t>(w.node)] = 1;
  }

  // Bottom-up execution order.
  const Traversal bottom_up = reverse_traversal(schedule.order);

  // Member columns per supernode.
  std::vector<std::vector<Index>> members(static_cast<std::size_t>(tree.size()));
  for (Index j = 0; j < n; ++j) {
    members[static_cast<std::size_t>(
                assembly.supernode_of[static_cast<std::size_t>(j)])]
        .push_back(j);
  }
  for (auto& m : members) {
    std::sort(m.begin(), m.end());
  }

  const SparsePattern l_pattern = symbolic_cholesky(matrix.pattern());

  OutOfCoreRunResult result;
  result.factor.pattern = l_pattern;
  result.factor.values.assign(static_cast<std::size_t>(l_pattern.nnz()), 0.0);

  std::vector<Block> blocks(static_cast<std::size_t>(tree.size()));
  Weight live = 0;
  // The in-core engines' dense kernel: same update order (bit-identical
  // factor) and same flop convention. Spills make this engine serial, so
  // the kernel never leases.
  const std::unique_ptr<const FrontKernel> kernel =
      make_front_kernel({.workers = 1});

  std::vector<Index> rows;
  std::vector<Index> front_pos(static_cast<std::size_t>(n), -1);
  std::vector<double> front;

  auto block_entries = [](const Block& b) {
    return static_cast<Weight>(b.rows.size() * b.rows.size());
  };

  for (const NodeId s : bottom_up) {
    const auto& cols = members[static_cast<std::size_t>(s)];
    rows.clear();
    for (const Index j : cols) {
      const auto lc = l_pattern.column(j);
      rows.insert(rows.end(), lc.begin(), lc.end());
    }
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    const std::size_t m = rows.size();
    const std::size_t eta = cols.size();
    for (std::size_t k = 0; k < m; ++k) {
      front_pos[static_cast<std::size_t>(rows[k])] = static_cast<Index>(k);
    }

    // Read back any spilled child blocks first (their entries re-enter the
    // in-core pool before the front is at full size — matching the
    // checker's accounting where the read-back precedes MemReq(i)).
    for (const NodeId c : tree.children(s)) {
      Block& cb = blocks[static_cast<std::size_t>(c)];
      if (cb.on_disk) {
        cb.on_disk = false;
        live += block_entries(cb);
        result.estimated_io_s += disk.transfer_s(block_entries(cb));
      }
    }

    front.assign(m * m, 0.0);
    live += static_cast<Weight>(m * m);
    result.peak_live_entries = std::max(result.peak_live_entries, live);

    auto at = [&](std::size_t r, std::size_t c) -> double& {
      return front[c * m + r];
    };
    for (const Index j : cols) {
      const std::size_t jc =
          static_cast<std::size_t>(front_pos[static_cast<std::size_t>(j)]);
      for (const Index r : matrix.pattern().column(j)) {
        if (r >= j) {
          at(static_cast<std::size_t>(front_pos[static_cast<std::size_t>(r)]), jc) +=
              matrix.value_of(r, j);
        }
      }
    }
    for (const NodeId c : tree.children(s)) {
      Block& cb = blocks[static_cast<std::size_t>(c)];
      kernel->extend_add(front.data(), m, front_pos.data(), cb.rows.data(),
                         cb.rows.size(), cb.values.data());
      live -= block_entries(cb);
      cb = Block{};
    }

    result.flops += kernel->partial_factor(front.data(), m, eta, cols.data());

    for (std::size_t k = 0; k < eta; ++k) {
      const Index j = cols[k];
      const auto lc = l_pattern.column(j);
      const std::size_t base = static_cast<std::size_t>(
          l_pattern.col_ptr()[static_cast<std::size_t>(j)]);
      for (std::size_t i = 0; i < lc.size(); ++i) {
        result.factor.values[base + i] =
            at(static_cast<std::size_t>(
                   front_pos[static_cast<std::size_t>(lc[i])]),
               k);
      }
    }

    Block& own = blocks[static_cast<std::size_t>(s)];
    const std::size_t cbm = m - eta;
    own.rows.assign(rows.begin() + static_cast<std::ptrdiff_t>(eta), rows.end());
    own.values.assign(cbm * cbm, 0.0);
    for (std::size_t c = 0; c < cbm; ++c) {
      for (std::size_t r = c; r < cbm; ++r) {
        own.values[c * cbm + r] = at(eta + r, eta + c);
      }
    }
    live += block_entries(own);
    live -= static_cast<Weight>(m * m);

    // Execute the plan: spill the fresh contribution block immediately if
    // the schedule writes it at any point of its lifetime.
    if (spills[static_cast<std::size_t>(s)] && cbm > 0) {
      own.on_disk = true;
      live -= block_entries(own);
      result.entries_spilled += block_entries(own);
      ++result.spill_events;
      result.estimated_io_s += disk.transfer_s(block_entries(own));
    }

    for (const Index r : rows) {
      front_pos[static_cast<std::size_t>(r)] = -1;
    }
  }

  TM_ASSERT(live == 0, "out-of-core run leaked " << live << " entries");
  TM_ASSERT(result.peak_live_entries <= budget_entries,
            "engine exceeded the planned budget: " << result.peak_live_entries
                                                   << " > " << budget_entries);
  return result;
}

}  // namespace treemem
