#include "parallel/parallel_sim.hpp"

#include <algorithm>
#include <queue>
#include <utility>

namespace treemem {

ParallelScheduleResult simulate_parallel_traversal(
    const Tree& tree, const ParallelOptions& options) {
  return simulate_parallel_traversal(tree, options,
                                     default_task_durations(tree));
}

ParallelScheduleResult simulate_parallel_traversal(
    const Tree& tree, const ParallelOptions& options,
    const std::vector<double>& durations) {
  const auto p = static_cast<std::size_t>(tree.size());
  ParallelScheduleResult result;
  ScheduleCore core(tree, options, durations);
  if (!core.schedule_feasible()) {
    return result;  // feasible = false
  }

  struct Running {
    double finish;
    NodeId node;
    int worker;
    bool operator>(const Running& other) const {
      return finish != other.finish ? finish > other.finish
                                    : node > other.node;
    }
  };
  std::priority_queue<Running, std::vector<Running>, std::greater<>> running;
  std::vector<int> free_workers;
  for (int w = options.workers; w-- > 0;) {
    free_workers.push_back(w);
  }

  double now = 0.0;
  double total_work = 0.0;
  std::vector<TaskInterval> gantt(p);
  Traversal completion_order;
  completion_order.reserve(p);

  auto try_dispatch = [&]() {
    while (!free_workers.empty()) {
      const NodeId i = core.try_start();
      if (i == kNoNode) {
        break;
      }
      const int worker = free_workers.back();
      free_workers.pop_back();
      running.push({now + durations[static_cast<std::size_t>(i)], i, worker});
      total_work += durations[static_cast<std::size_t>(i)];
    }
  };

  try_dispatch();
  while (!running.empty()) {
    const Running done = running.top();
    running.pop();
    now = done.finish;
    const auto node = static_cast<std::size_t>(done.node);
    gantt[node] = {done.node, done.worker, now - durations[node], now};
    completion_order.push_back(done.node);
    core.finish(done.node);
    free_workers.push_back(done.worker);
    try_dispatch();
  }

  result.peak_memory = core.peak_memory();
  if (!core.done()) {
    // Memory deadlock: tasks remain but none could ever start.
    result.feasible = false;
    return result;
  }
  TM_ASSERT(p == 0 || core.current_memory() == tree.file_size(tree.root()),
            "simulation must end holding exactly the root file");
  result.feasible = true;
  result.makespan = now;
  result.speedup = total_work / std::max(now, 1e-300);
  result.gantt = std::move(gantt);
  result.completion_order = std::move(completion_order);
  return result;
}

}  // namespace treemem
