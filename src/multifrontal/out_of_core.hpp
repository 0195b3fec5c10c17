// Out-of-core multifrontal execution: runs a MinIO eviction schedule for
// real. Where core/minio.hpp *plans* which contribution blocks to spill,
// this engine *executes* the plan: spilled blocks move to a simulated
// secondary store right after they are produced, are restored just before
// their parent assembles them, and the engine asserts that in-core live
// memory never exceeds the budget the plan was made for.
//
// Directions: MinIO schedules are expressed on the out-tree order σ (the
// paper's convention); the factorization runs bottom-up on reverse(σ). A
// file written at out-tree step τ(j) is, in factorization time, a
// contribution block that spends part of its produced-to-consumed lifetime
// on disk — spilling it immediately after production is the
// memory-dominant choice, so that is what the engine does.
#pragma once

#include "core/traversal.hpp"
#include "multifrontal/disk_model.hpp"
#include "multifrontal/numeric.hpp"
#include "symbolic/assembly_tree.hpp"

namespace treemem {

struct OutOfCoreRunResult {
  CholeskyFactor factor;
  /// Largest in-core live entries over the run (spilled blocks excluded).
  Weight peak_live_entries = 0;
  /// Entries actually moved to the secondary store (once each; the same
  /// volume is read back).
  Weight entries_spilled = 0;
  /// Number of spill (write) operations.
  int spill_events = 0;
  /// I/O time under the given disk model (writes + reads).
  double estimated_io_s = 0.0;
  /// Floating-point operations of the dense eliminations (the front
  /// kernel's convention, so equal to the in-core engines' count).
  long long flops = 0;
};

/// Executes `schedule` (out-tree order + writes, e.g. from minio_heuristic)
/// against `budget_entries` of in-core memory. Throws if the schedule is
/// structurally invalid; TM_ASSERTs that the measured in-core peak respects
/// the budget (guaranteed when the plan was feasible for the same tree,
/// since real fronts never exceed the model's padded fronts). The run
/// borrows `storage` (nullptr = a fresh workspace for this run only).
OutOfCoreRunResult multifrontal_cholesky_out_of_core(
    const SymmetricMatrix& matrix, const AssemblyTree& assembly,
    const IoSchedule& schedule, Weight budget_entries,
    const DiskModel& disk = {}, NumericWorkspace* storage = nullptr);

}  // namespace treemem
