// Execution planner: the one-call answer to "I have this tree and M bytes
// of memory — how should I run it?".
//
// Encodes the decision procedure the paper's experiments justify:
//   * enough memory for the best postorder  -> run it in-core (postorders
//     maximize locality and are what production codes expect);
//   * enough for the optimal traversal only -> run MinMem's order in-core
//     (Fig. 5/9: the gap can be decisive);
//   * less than that but >= max MemReq      -> out-of-core; pick the
//     traversal × eviction-policy combination with the least I/O volume
//     (Figs. 7–8: PostOrder- or Liu-style orders with FirstFit win);
//   * below max MemReq                      -> infeasible, no schedule can
//     help (Eq. 1 must hold per node).
#pragma once

#include <functional>
#include <span>
#include <string>

#include "core/minmem.hpp"
#include "core/traversal.hpp"
#include "tree/tree.hpp"

namespace treemem {

struct ExecutionPlan {
  bool feasible = false;
  /// Human-readable strategy tag, e.g. "postorder/in-core" or
  /// "liu+FirstFit/out-of-core".
  std::string strategy;
  /// Full schedule (order + writes; writes empty for in-core plans).
  IoSchedule schedule;
  /// Peak memory of the plan under the given budget.
  Weight peak = 0;
  /// Total volume written to secondary storage (0 for in-core plans).
  Weight io_volume = 0;
  /// True when the schedule evicts files (the out-of-core regime).
  bool out_of_core = false;
  /// The smallest budget that would run fully in-core (the MinMemory
  /// optimum) — reported so callers can size workspaces.
  Weight in_core_optimum = 0;
};

struct PlannerOptions {
  /// Candidate eviction policies tried in the out-of-core regime (default:
  /// the two front-runners of Fig. 7).
  bool try_best_k = true;
  bool try_lsnf = false;
};

/// The traversal searches the decision procedure reads. Liu's order is
/// needed only out of core, so it is fetched on first use.
struct PlannerSearches {
  const TraversalResult& postorder;
  const MinMemResult& minmem;
  std::function<const TraversalResult&()> liu;
};

/// Plans an execution of `tree` within `memory_budget`. The returned
/// schedule always passes check_out_of_core(tree, schedule, memory_budget)
/// when feasible.
ExecutionPlan plan_execution(const Tree& tree, Weight memory_budget,
                             const PlannerOptions& options = {});

/// The same decision over searches the caller has already run (Solver
/// memoizes them per analysis), so no search runs twice.
ExecutionPlan plan_execution(const Tree& tree, Weight memory_budget,
                             const PlannerSearches& searches,
                             const PlannerOptions& options = {});

/// A traversal the out-of-core chooser may evict along.
struct TraversalCandidate {
  const char* name;         ///< strategy-tag prefix, e.g. "postorder"
  const Traversal* order;   ///< out-tree order
};

/// The out-of-core regime alone: runs minio_heuristic on every candidate
/// under every eviction policy `options` enables and keeps the schedule
/// with the least I/O volume (the first one on ties). Infeasible, with no
/// schedule, when the budget is below max(max MemReq, f_root): no
/// eviction helps there (Eq. 1). in_core_optimum is left 0.
ExecutionPlan plan_out_of_core(const Tree& tree, Weight memory_budget,
                               std::span<const TraversalCandidate> candidates,
                               const PlannerOptions& options = {});

}  // namespace treemem
