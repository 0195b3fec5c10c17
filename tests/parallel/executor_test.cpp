// Tests for the real threaded memory-bounded executor and the schedule_core
// it shares with the simulator.
//
// The load-bearing properties:
//   * with w = 1 the executor takes exactly the simulator's scheduling
//     decisions, so feasibility, peak and order match the simulation — and
//     the peak equals the serial in-tree checker's Eq. 1 peak (the
//     schedule_core transient accounting cannot drift from the paper's
//     model);
//   * the accounted peak never exceeds the budget on feasible runs;
//   * schedule-independent outputs (per-task payload results, precedence,
//     final resident memory) are deterministic even at w > 1;
//   * infeasible instances — transient larger than M, or a mid-run greedy
//     stall — fail cleanly instead of hanging;
//   * a body's lane is its gantt worker, lies in [0, min(w, tasks)), and is
//     never held by two bodies at once (callers index scratch by it).
// At w > 1 with a tight budget, greedy feasibility depends on the real
// completion interleaving, so exact simulator parity is only asserted where
// it is interleaving-invariant: w = 1 (any budget), any w with an unlimited
// budget, and symmetric trees (identical siblings) with tight budgets.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/check.hpp"
#include "core/postorder.hpp"
#include "parallel/executor.hpp"
#include "parallel/parallel_sim.hpp"
#include "parallel/worker_pool.hpp"
#include "test_util.hpp"
#include "tree/generators.hpp"

namespace treemem {
namespace {

using testing::seeded_random_tree;
using testing::small_tree_corpus;

/// Structural validation of an executor run: every task exactly once,
/// children complete before their parent starts (measured clocks), no two
/// tasks overlap on one worker.
void check_executor_run(const Tree& tree, const ParallelScheduleResult& result,
                        int workers) {
  ASSERT_TRUE(result.feasible);
  ASSERT_EQ(result.gantt.size(), static_cast<std::size_t>(tree.size()));
  ASSERT_EQ(result.completion_order.size(),
            static_cast<std::size_t>(tree.size()));
  Traversal sorted = result.completion_order;
  std::sort(sorted.begin(), sorted.end());
  for (NodeId i = 0; i < tree.size(); ++i) {
    EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
  }
  for (const TaskInterval& task : result.gantt) {
    ASSERT_GE(task.worker, 0);
    ASSERT_LT(task.worker, workers);
    ASSERT_LE(task.start, task.finish);
    for (const NodeId c : tree.children(task.node)) {
      // The parent is dispatched only after the child's finish timestamp
      // was taken (both under the scheduler lock), so measured times agree.
      EXPECT_LE(result.gantt[static_cast<std::size_t>(c)].finish,
                task.start + 1e-9);
    }
  }
  std::vector<TaskInterval> by_worker = result.gantt;
  std::sort(by_worker.begin(), by_worker.end(),
            [](const TaskInterval& a, const TaskInterval& b) {
              return a.worker != b.worker ? a.worker < b.worker
                                          : a.start < b.start;
            });
  for (std::size_t i = 1; i < by_worker.size(); ++i) {
    if (by_worker[i].worker == by_worker[i - 1].worker) {
      EXPECT_GE(by_worker[i].start, by_worker[i - 1].finish - 1e-9);
    }
  }
}

TEST(Executor, SingleWorkerMatchesSimulatorAndSerialChecker) {
  // The satellite property: schedule_core transient accounting == the Eq. 1
  // peak of the serial in-tree checker on every single-worker schedule, and
  // the w=1 executor replays the w=1 simulation decision for decision.
  for (const Tree& tree : small_tree_corpus(60, 24)) {
    for (const ParallelPriority priority :
         {ParallelPriority::kCriticalPath, ParallelPriority::kPostorder,
          ParallelPriority::kSmallestWork}) {
      const ParallelOptions options{.workers = 1, .priority = priority};
      const auto sim = simulate_parallel_traversal(tree, options);
      ASSERT_TRUE(sim.feasible);

      const auto exec = execute_task_tree(tree, {.schedule = options});
      check_executor_run(tree, exec, 1);
      EXPECT_EQ(exec.completion_order, sim.completion_order);
      EXPECT_EQ(exec.peak_memory, sim.peak_memory);
      EXPECT_EQ(exec.peak_memory,
                in_tree_traversal_peak(tree, exec.completion_order))
          << to_string(priority);
    }
  }
}

TEST(Executor, SingleWorkerFeasibilityParityUnderTightBudgets) {
  // At w=1 the executor and simulator are the same greedy decision
  // process, so feasibility parity is exact — including identical stalls.
  for (const Tree& tree : small_tree_corpus(40, 20, /*salt=*/77)) {
    const Weight postorder_peak = best_postorder(tree).peak;
    for (const Weight budget :
         {tree.max_mem_req(), postorder_peak,
          (tree.max_mem_req() + postorder_peak) / 2, postorder_peak * 2}) {
      const ParallelOptions options{.workers = 1, .memory_budget = budget};
      const auto sim = simulate_parallel_traversal(tree, options);
      const auto exec = execute_task_tree(tree, {.schedule = options});
      ASSERT_EQ(exec.feasible, sim.feasible) << "budget " << budget;
      if (exec.feasible) {
        EXPECT_EQ(exec.peak_memory, sim.peak_memory);
        EXPECT_LE(exec.peak_memory, budget);
        EXPECT_EQ(exec.completion_order, sim.completion_order);
      }
    }
  }
}

TEST(Executor, UnlimitedBudgetAlwaysCompletes) {
  for (const std::uint64_t seed : {3ULL, 11ULL, 27ULL}) {
    const Tree tree = seeded_random_tree(seed * 733, 80);
    for (const int workers : {2, 4, 8}) {
      ExecutorOptions options;
      options.schedule.workers = workers;
      const auto result = execute_task_tree(tree, options);
      check_executor_run(tree, result, workers);
      // When any task starts, its children files are already accounted, so
      // the peak is at least the largest Eq. 1 transient of the tree.
      EXPECT_GE(result.peak_memory, tree.max_mem_req());
    }
  }
}

TEST(Executor, SymmetricStarRespectsTightBudget) {
  // 16 identical leaves (transient 6, file 5) + root (transient 81). With
  // budget 81 feasibility is interleaving-invariant: any k running leaves
  // and r finished files hold 6k + 5r <= 81 only when admitted, and once
  // all leaves finished (resident 80) the root's delta 1 always fits.
  const Tree tree = gen::star(16, 5, 1);
  for (const int workers : {2, 8}) {
    ExecutorOptions options;
    options.schedule.workers = workers;
    options.schedule.memory_budget = 81;
    const auto result = execute_task_tree(tree, options);
    check_executor_run(tree, result, workers);
    EXPECT_LE(result.peak_memory, 81);

    ParallelOptions sim_options;
    sim_options.workers = workers;
    sim_options.memory_budget = 81;
    EXPECT_TRUE(simulate_parallel_traversal(tree, sim_options).feasible);
  }
}

TEST(Executor, PeakNeverExceedsBudgetAcrossSweep) {
  for (const Tree& tree : small_tree_corpus(30, 16, /*salt=*/5)) {
    const Weight budget = best_postorder(tree).peak * 2;
    for (const int workers : {1, 2, 4}) {
      ExecutorOptions options;
      options.schedule.workers = workers;
      options.schedule.memory_budget = budget;
      const auto result = execute_task_tree(tree, options);
      if (result.feasible) {
        EXPECT_LE(result.peak_memory, budget);
      }
    }
  }
}

TEST(Executor, ScheduleIndependentOutputsAreDeterministic) {
  // Payload results land in per-node slots; whatever interleaving the OS
  // produces, the slots, the exactly-once execution count, the precedence
  // and the final resident memory are identical run to run.
  const Tree tree = seeded_random_tree(4242, 120);
  const std::size_t p = static_cast<std::size_t>(tree.size());
  std::vector<Weight> reference;
  for (int run = 0; run < 3; ++run) {
    std::vector<Weight> slots(p, 0);
    std::atomic<int> executions{0};
    ExecutorOptions options;
    options.schedule.workers = 4;
    const auto result = execute_task_tree(
        tree, options, default_task_durations(tree), [&](NodeId node, int) {
          Weight value = tree.file_size(node) + 3 * tree.work_size(node);
          for (const NodeId c : tree.children(node)) {
            value += slots[static_cast<std::size_t>(c)];  // children done
          }
          slots[static_cast<std::size_t>(node)] = value;
          executions.fetch_add(1, std::memory_order_relaxed);
        });
    check_executor_run(tree, result, 4);
    EXPECT_EQ(executions.load(), tree.size());
    if (run == 0) {
      reference = slots;
    } else {
      EXPECT_EQ(slots, reference);
    }
  }
}

TEST(Executor, InfeasibleWhenATaskCannotFit) {
  const Tree tree = gen::star(4, 10, 0);  // root transient = 40
  ExecutorOptions options;
  options.schedule.workers = 2;
  options.schedule.memory_budget = 39;
  const auto result = execute_task_tree(tree, options);
  EXPECT_FALSE(result.feasible);
  EXPECT_TRUE(result.gantt.empty());
  EXPECT_TRUE(result.completion_order.empty());
}

TEST(Executor, GreedyStallFailsCleanlyAndMatchesSimulator) {
  // Two two-node subtrees under the root. Critical-path ranks (via the
  // custom durations) force both leaves to run before either parent; with
  // budget 20 the two resident leaf files (10+10) then strand the memory:
  // neither parent's delta (5) fits and nothing can ever free space. The
  // instance IS schedulable under budget 25 (leaf-parent-leaf-parent), so
  // this exercises the mid-run stall path, not the per-task precheck.
  TreeBuilder builder;
  const NodeId root = builder.add_root(0, 0);
  const NodeId left = builder.add_child(root, 5, 0);
  const NodeId right = builder.add_child(root, 5, 0);
  builder.add_child(left, 10, 0);   // node 3
  builder.add_child(right, 10, 0);  // node 4
  const Tree tree = std::move(builder).build();
  const std::vector<double> durations{1.0, 1.0, 1.0, 100.0, 90.0};

  for (const Weight budget : {Weight{20}, Weight{25}}) {
    const ParallelOptions options{.workers = 1, .memory_budget = budget};
    const auto exec = execute_task_tree(tree, {.schedule = options}, durations);
    const auto sim = simulate_parallel_traversal(tree, options, durations);

    EXPECT_EQ(exec.feasible, sim.feasible) << "budget " << budget;
    EXPECT_EQ(exec.feasible, budget == 25) << "budget " << budget;
    if (exec.feasible) {
      EXPECT_LE(exec.peak_memory, budget);
    }
  }
}

TEST(Executor, SpinWorkYieldsRealSpeedup) {
  if (std::thread::hardware_concurrency() < 2) {
    GTEST_SKIP() << "needs at least two cores for measured speedup";
  }
  // 8 identical leaves of 6 duration units each; with a payload that
  // busy-waits 2 ms per unit the serial run spins ~100 ms, so scheduling
  // overhead is noise. A spin, not a sleep, so the worker genuinely
  // occupies its core. Wall-clock thresholds on a shared CI runner can lose
  // to a noisy neighbor, so take the best of a few attempts before judging.
  const Tree tree = gen::star(8, 5, 1);
  const std::vector<double> durations = default_task_durations(tree);
  const TaskBody spin = [&](NodeId node, int) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(
                durations[static_cast<std::size_t>(node)] * 2e-3));
    while (std::chrono::steady_clock::now() < deadline) {
    }
  };
  ExecutorOptions serial;
  serial.schedule.workers = 1;
  ExecutorOptions parallel = serial;
  parallel.schedule.workers = 2;
  double best_ratio = std::numeric_limits<double>::max();
  for (int attempt = 0; attempt < 3 && best_ratio >= 0.8; ++attempt) {
    const auto one = execute_task_tree(tree, serial, durations, spin);
    const auto two = execute_task_tree(tree, parallel, durations, spin);
    ASSERT_TRUE(one.feasible);
    ASSERT_TRUE(two.feasible);
    EXPECT_LE(two.speedup, 2.0 + 1e-6);
    best_ratio = std::min(best_ratio, two.makespan / one.makespan);
  }
  EXPECT_LT(best_ratio, 0.8);
}

TEST(Executor, PayloadExceptionPropagatesWithoutHanging) {
  const Tree tree = gen::star(12, 2, 1);
  ExecutorOptions options;
  options.schedule.workers = 4;
  std::atomic<int> ran{0};
  EXPECT_THROW(
      execute_task_tree(tree, options, default_task_durations(tree),
                        [&](NodeId node, int) {
                          if (node == 5) {
                            throw Error("payload failure");
                          }
                          ran.fetch_add(1, std::memory_order_relaxed);
                        }),
      Error);
  EXPECT_LT(ran.load(), tree.size());  // the run aborted early
}

TEST(Executor, ConcurrentBodiesGetDistinctLanes) {
  // The lane a body receives is the executor's worker id: in
  // [0, min(w, tasks)), the gantt's worker for that task, and never held
  // by two bodies at once — what lets factor_parallel index its front
  // workspaces by lane without a lock. Each body sleeps briefly so bodies
  // overlap; a per-lane occupancy flag catches two bodies sharing a lane
  // the moment the second one enters. Both crewing modes, on a wide star
  // (more tasks than workers) and a small one (fewer tasks than workers).
  WorkerPool pool(4);
  for (const Tree& tree : {gen::star(11, 1, 1), gen::star(2, 1, 1)}) {
    const auto p = static_cast<std::size_t>(tree.size());
    for (const int workers : {2, 4}) {
      for (const bool elastic : {true, false}) {
        ASSERT_TRUE(testing::wait_for_idle(pool));
        const int lanes = std::min(workers, static_cast<int>(p));
        std::vector<std::atomic<bool>> occupied(
            static_cast<std::size_t>(workers));
        std::vector<int> lane_of(p, -1);
        std::atomic<int> shared{0};
        std::atomic<int> out_of_range{0};
        ExecutorOptions options;
        options.schedule.workers = workers;
        options.lease_idle_workers = elastic;
        options.pool = &pool;
        const ParallelScheduleResult run = execute_task_tree(
            tree, options, default_task_durations(tree),
            [&](NodeId node, int lane) {
              lane_of[static_cast<std::size_t>(node)] = lane;
              if (lane < 0 || lane >= lanes) {
                out_of_range.fetch_add(1);
                return;
              }
              std::atomic<bool>& flag =
                  occupied[static_cast<std::size_t>(lane)];
              if (flag.exchange(true)) {
                shared.fetch_add(1);
              }
              std::this_thread::sleep_for(std::chrono::milliseconds(2));
              flag.store(false);
            });
        const std::string where = "p=" + std::to_string(p) +
                                  " w=" + std::to_string(workers) +
                                  " elastic=" + std::to_string(elastic);
        ASSERT_TRUE(run.feasible) << where;
        EXPECT_EQ(out_of_range.load(), 0) << where;
        EXPECT_EQ(shared.load(), 0) << where;
        for (const TaskInterval& task : run.gantt) {
          EXPECT_EQ(lane_of[static_cast<std::size_t>(task.node)], task.worker)
              << where << " node " << task.node;
        }
        check_executor_run(tree, run, lanes);
      }
    }
  }
}

TEST(Executor, RejectsBadArguments) {
  const Tree tree = gen::chain(3, 1, 1);
  ExecutorOptions options;
  options.schedule.workers = 0;
  EXPECT_THROW(execute_task_tree(tree, options), Error);
  options.schedule.workers = 2;
  EXPECT_THROW(execute_task_tree(tree, options, {1.0, 2.0}), Error);
  EXPECT_THROW(execute_task_tree(tree, options, {1.0, -1.0, 2.0}), Error);
}

TEST(ScheduleCore, TransientMatchesEquationOne) {
  for (const Tree& tree : small_tree_corpus(20, 12, /*salt=*/9)) {
    const auto durations = default_task_durations(tree);
    ScheduleCore core(tree, ParallelOptions{}, durations);
    for (NodeId i = 0; i < tree.size(); ++i) {
      EXPECT_EQ(core.transient(i), tree.mem_req(i));
    }
  }
}

TEST(ScheduleCore, SerialDriveReproducesSerialCheckerPeak) {
  // Driving the core strictly serially (finish immediately after start) is
  // a single-worker schedule; its accounted peak must equal the Eq. 1 peak
  // the serial in-tree checker computes for the executed order.
  for (const Tree& tree : small_tree_corpus(40, 18, /*salt=*/13)) {
    for (const ParallelPriority priority :
         {ParallelPriority::kCriticalPath, ParallelPriority::kPostorder,
          ParallelPriority::kSmallestWork}) {
      const auto durations = default_task_durations(tree);
      ScheduleCore core(tree, {.priority = priority}, durations);
      Traversal order;
      while (!core.done()) {
        const NodeId node = core.try_start();
        ASSERT_NE(node, kNoNode);
        core.finish(node);
        order.push_back(node);
      }
      EXPECT_EQ(core.peak_memory(), in_tree_traversal_peak(tree, order));
      EXPECT_EQ(core.current_memory(), tree.file_size(tree.root()));
    }
  }
}

TEST(MemoryAccountant, GatesOnBudgetAndTracksPeak) {
  MemoryAccountant accountant(100);
  EXPECT_TRUE(accountant.try_acquire(60));
  EXPECT_FALSE(accountant.try_acquire(41));
  EXPECT_TRUE(accountant.try_acquire(40));
  EXPECT_EQ(accountant.current(), 100);
  EXPECT_EQ(accountant.peak(), 100);
  accountant.adjust(-70);
  EXPECT_EQ(accountant.current(), 30);
  EXPECT_EQ(accountant.peak(), 100);
  EXPECT_TRUE(accountant.try_acquire(0));
  MemoryAccountant unlimited;
  EXPECT_TRUE(unlimited.try_acquire(kInfiniteWeight / 2));
}

}  // namespace
}  // namespace treemem
