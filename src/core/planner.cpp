#include "core/planner.hpp"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "core/liu.hpp"
#include "core/minio.hpp"
#include "core/postorder.hpp"

namespace treemem {

ExecutionPlan plan_execution(const Tree& tree, Weight memory_budget,
                             const PlannerOptions& options) {
  const TraversalResult postorder = best_postorder(tree);
  const MinMemResult optimal = minmem_optimal(tree);
  std::optional<TraversalResult> liu;
  const PlannerSearches searches{
      postorder, optimal, [&]() -> const TraversalResult& {
        if (!liu) {
          liu = liu_optimal(tree);
        }
        return *liu;
      }};
  return plan_execution(tree, memory_budget, searches, options);
}

ExecutionPlan plan_execution(const Tree& tree, Weight memory_budget,
                             const PlannerSearches& searches,
                             const PlannerOptions& options) {
  ExecutionPlan plan;
  plan.in_core_optimum = searches.minmem.peak;

  // Regime 1: the best postorder fits — maximal locality, zero I/O.
  if (memory_budget >= searches.postorder.peak) {
    plan.feasible = true;
    plan.strategy = "postorder/in-core";
    plan.schedule.order = searches.postorder.order;
    plan.peak = searches.postorder.peak;
    return plan;
  }

  // Regime 2: only an optimal traversal fits.
  if (memory_budget >= searches.minmem.peak) {
    plan.feasible = true;
    plan.strategy = "minmem/in-core";
    plan.schedule.order = searches.minmem.order;
    plan.peak = searches.minmem.peak;
    return plan;
  }

  // Regime 3: genuine out-of-core execution. Candidate traversals: the
  // postorder and Liu's optimal order (both build long dependence chains,
  // which Fig. 8 shows is what keeps I/O low); candidate policies per
  // Fig. 7.
  const TraversalCandidate candidates[] = {
      {"postorder", &searches.postorder.order},
      {"liu", &searches.liu().order}};
  plan = plan_out_of_core(tree, memory_budget, candidates, options);
  plan.in_core_optimum = searches.minmem.peak;
  return plan;
}

ExecutionPlan plan_out_of_core(const Tree& tree, Weight memory_budget,
                               std::span<const TraversalCandidate> candidates,
                               const PlannerOptions& options) {
  ExecutionPlan plan;
  const Weight floor = std::max(tree.max_mem_req(), tree.file_size(tree.root()));
  if (memory_budget < floor) {
    plan.strategy = "infeasible: budget below max MemReq";
    return plan;
  }

  std::vector<EvictionPolicy> policies{EvictionPolicy::kFirstFit};
  if (options.try_best_k) {
    policies.push_back(EvictionPolicy::kBestKCombination);
  }
  if (options.try_lsnf) {
    policies.push_back(EvictionPolicy::kLsnf);
  }

  Weight best_io = kInfiniteWeight;
  for (const TraversalCandidate& candidate : candidates) {
    for (const EvictionPolicy policy : policies) {
      MinIoResult result =
          minio_heuristic(tree, *candidate.order, memory_budget, policy);
      TM_ASSERT(result.feasible, "budget above the floor must be feasible");
      if (result.io_volume < best_io) {
        best_io = result.io_volume;
        plan.schedule = std::move(result.schedule);
        plan.strategy = std::string(candidate.name) + "+" +
                        to_string(policy) + "/out-of-core";
      }
    }
  }
  plan.feasible = true;
  plan.out_of_core = true;
  plan.io_volume = best_io;
  plan.peak = memory_budget;
  return plan;
}

}  // namespace treemem
