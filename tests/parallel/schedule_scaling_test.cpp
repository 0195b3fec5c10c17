// Scaling guard for the scheduler's ready set.
//
// A caterpillar with a million leaves keeps every leaf ready from the
// start, the worst case for the ready set. Its binary heap costs
// O(log p) per start and finish, so each run below takes under a second
// (about 0.5 s on a 4-core x86 box, 112 MB peak). A ready set that costs
// O(|ready|) per operation, such as a vector kept sorted, is quadratic:
// 85 s for the ScheduleCore run on the same box, where 200,000 leaves
// would still finish in about 2 s. ctest gives this binary a 30 s timeout,
// so such a regression fails here instead of only slowing the benchmarks.
#include <gtest/gtest.h>

#include <deque>

#include "parallel/executor.hpp"
#include "parallel/schedule_core.hpp"
#include "support/prng.hpp"
#include "tree/generators.hpp"

namespace treemem {
namespace {

constexpr NodeId kLeaves = 1'000'000;

/// 5,000 spine nodes with 200 leaves each, random weights so the
/// critical-path ranks differ and the heap really reorders.
Tree wide_tree() {
  Prng prng(2011);
  return gen::with_random_weights(
      gen::caterpillar(5'000, kLeaves / 5'000, 1, 1, 1), 1, 100, 0, 10, prng);
}

TEST(ScheduleScaling, ScheduleCoreHandlesAMillionReadyLeaves) {
  const Tree tree = wide_tree();
  ScheduleCore core(tree, ParallelOptions{}, default_task_durations(tree));
  // Four lanes: keep up to four tasks running, finish the oldest first.
  std::deque<NodeId> running;
  std::size_t started = 0;
  while (!core.done()) {
    while (running.size() < 4) {
      const NodeId node = core.try_start();
      if (node == kNoNode) {
        break;
      }
      running.push_back(node);
      ++started;
    }
    ASSERT_FALSE(running.empty()) << "schedule stalled";
    core.finish(running.front());
    running.pop_front();
  }
  EXPECT_EQ(started, static_cast<std::size_t>(tree.size()));
}

TEST(ScheduleScaling, ExecutorRunsAMillionEmptyTasksOnFourWorkers) {
  const Tree tree = wide_tree();
  ExecutorOptions options;
  options.schedule.workers = 4;
  const ParallelScheduleResult run = execute_task_tree(
      tree, options, default_task_durations(tree), [](NodeId) {});
  ASSERT_TRUE(run.feasible);
  EXPECT_EQ(run.completion_order.size(),
            static_cast<std::size_t>(tree.size()));
}

}  // namespace
}  // namespace treemem
