#include "multifrontal/out_of_core.hpp"

#include <algorithm>

#include "core/check.hpp"

namespace treemem {

OutOfCoreRunResult multifrontal_cholesky_out_of_core(
    const SymmetricMatrix& matrix, const AssemblyTree& assembly,
    const IoSchedule& schedule, Weight budget_entries, const DiskModel& disk,
    NumericWorkspace* storage) {
  const Tree& tree = assembly.tree;
  TM_CHECK(assembly.columns == matrix.size(), "matrix/assembly size mismatch");

  // Validate the schedule once with the reference checker at the budget...
  // using the *model* weights; real fronts are no larger, so feasibility
  // transfers to the engine.
  {
    const CheckResult check = check_out_of_core(tree, schedule, budget_entries);
    TM_CHECK(check.feasible,
             "out-of-core schedule rejected by Algorithm 2: " << check.reason);
  }

  // The in-core serial engine does the numeric work (same update order,
  // hence a bit-identical factor, and the same flop convention) and meters
  // every front and contribution block; spills make this run serial, so its
  // kernel never leases. This driver only tracks which blocks sit on disk:
  // a block the plan writes leaves the in-core pool right after it is
  // produced and re-enters it just before its parent's front is allocated —
  // matching the checker, where the read-back precedes MemReq(i).
  FrontalEngine engine(matrix, assembly, {.workers = 1}, storage);
  engine.reserve_lanes(1);
  auto block_entries = [&fronts = *assembly.fronts](NodeId s) {
    const auto rows = static_cast<Weight>(fronts.update_rows(s).size());
    return rows * rows;
  };
  std::vector<char> spilled(static_cast<std::size_t>(tree.size()), 0);
  for (const IoWrite& w : schedule.writes) {
    spilled[static_cast<std::size_t>(w.node)] = block_entries(w.node) > 0;
  }
  Weight disk_entries = 0;
  OutOfCoreRunResult result;

  for (const NodeId s : reverse_traversal(schedule.order)) {
    for (const NodeId c : tree.children(s)) {
      if (spilled[static_cast<std::size_t>(c)]) {
        disk_entries -= block_entries(c);
        result.estimated_io_s += disk.transfer_s(block_entries(c));
      }
    }
    engine.process_front(s, 0);
    result.peak_live_entries = std::max(
        result.peak_live_entries, engine.transient_at_start(s) - disk_entries);
    if (spilled[static_cast<std::size_t>(s)]) {
      disk_entries += block_entries(s);
      result.entries_spilled += block_entries(s);
      ++result.spill_events;
      result.estimated_io_s += disk.transfer_s(block_entries(s));
    }
  }

  TM_ASSERT(engine.live_entries() == 0 && disk_entries == 0,
            "out-of-core run leaked " << engine.live_entries() << " entries");
  TM_ASSERT(result.peak_live_entries <= budget_entries,
            "engine exceeded the planned budget: " << result.peak_live_entries
                                                   << " > " << budget_entries);
  result.flops = engine.flops();
  result.factor = engine.take_factor();
  return result;
}

}  // namespace treemem
