// The one table of SolverStats merge semantics.
//
// Aggregating per-worker SolverStats snapshots into a fleet view needs
// two parallel field lists — the counters/times that add across workers
// and the peaks that max — and exporting them needs a third: which rows
// are cumulative (Prometheus counters) and which can fall (gauges).
// Hand-maintained copies of such lists have drifted before (two fields
// were once silently dropped), so this header is the single source of
// truth: `for_each_stat_field` visits every mergeable numeric field with
// its name and merge kind, and everything that folds stats —
// `aggregate_solver_stats`, the metrics exporter in SolverPool — is
// generated from the same visitation. Adding a numeric field to
// SolverStats means adding one line here; every merge and every
// exposition picks it up together.
//
// Non-numeric fields (ordering/strategy/engine names, per-run
// configuration like `workers` and `memory_budget`) have no meaningful
// cross-worker fold and stay out of the table on purpose.
#pragma once

#include <algorithm>

#include "solver/solver.hpp"

namespace treemem::obs {

enum class StatMerge {
  /// Cumulative totals since analyze() (solve time, counts): add across
  /// workers and never fall between resets, so they are the only rows
  /// exported as counters.
  kTotal,
  kSum,  ///< latest-run values that add across workers: times, flops
  kMax   ///< peaks: high-water marks are a max across workers
};

/// Visits (name, merge kind, pointer-to-member) for every mergeable
/// numeric SolverStats field. Names are the exposition suffixes
/// (`treemem_solver_<name>` in the metrics dump).
template <typename Fn>
void for_each_stat_field(Fn&& fn) {
  using S = SolverStats;
  fn("analyze_seconds", StatMerge::kSum, &S::analyze_seconds);
  fn("plan_seconds", StatMerge::kSum, &S::plan_seconds);
  fn("factorize_seconds", StatMerge::kSum, &S::factorize_seconds);
  fn("solve_seconds", StatMerge::kTotal, &S::solve_seconds);
  fn("factorizations", StatMerge::kTotal, &S::factorizations);
  fn("rhs_solved", StatMerge::kTotal, &S::rhs_solved);
  fn("flops", StatMerge::kSum, &S::flops);
  fn("measured_peak_entries", StatMerge::kMax, &S::measured_peak_entries);
  fn("modeled_peak_entries", StatMerge::kMax, &S::modeled_peak_entries);
  fn("planned_peak_entries", StatMerge::kMax, &S::planned_peak_entries);
  fn("in_core_optimum", StatMerge::kMax, &S::in_core_optimum);
  fn("best_postorder_peak", StatMerge::kMax, &S::best_postorder_peak);
  fn("planned_io_volume", StatMerge::kMax, &S::planned_io_volume);
}

/// Folds `snapshot` into `total` field by field per the table.
inline void merge_solver_stats(SolverStats& total,
                               const SolverStats& snapshot) {
  for_each_stat_field([&](const char*, StatMerge merge, auto member) {
    if (merge == StatMerge::kMax) {
      total.*member = std::max(total.*member, snapshot.*member);
    } else {
      total.*member += snapshot.*member;
    }
  });
}

}  // namespace treemem::obs
