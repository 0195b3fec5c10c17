#include "parallel/executor.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>

#include "obs/trace.hpp"
#include "parallel/worker_pool.hpp"
#include "support/timer.hpp"

namespace treemem {

namespace {

/// Static-literal trace names (TraceEvent stores pointers, not copies).
const char* admission_trace_name(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kGreedy:
      return "admission:greedy";
    case AdmissionPolicy::kLookahead:
      return "admission:lookahead";
  }
  return "admission:?";
}

}  // namespace

ParallelScheduleResult execute_task_tree(const Tree& tree,
                                         const ExecutorOptions& options) {
  return execute_task_tree(tree, options, default_task_durations(tree));
}

ParallelScheduleResult execute_task_tree(const Tree& tree,
                                         const ExecutorOptions& options,
                                         const std::vector<double>& durations,
                                         const TaskBody& body) {
  const auto p = static_cast<std::size_t>(tree.size());
  TM_CHECK(options.trace_labels.empty() || options.trace_labels.size() == p,
           "trace labels size mismatch");
  const ParallelOptions& schedule = options.schedule;

  ParallelScheduleResult result;
  ScheduleCore core(tree, schedule, durations);
  if (!core.schedule_feasible()) {
    return result;  // feasible = false: a transient or the witness peak
                    // exceeds the budget
  }
  if (p == 0) {
    result.feasible = true;
    return result;
  }

  WorkerPool& pool = options.pool != nullptr ? *options.pool
                                             : WorkerPool::instance();
  // More workers than tasks would only park idle threads; the calling
  // thread (the anchor, worker id 0) is part of the crew, so at most
  // target-1 pool workers are ever recruited.
  const int target = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(schedule.workers), p));

  // Scheduler state. Every ScheduleCore call happens under `mutex`; workers
  // drop it only while a payload runs.
  std::mutex mutex;
  std::condition_variable ready_cv;
  std::condition_variable helpers_cv;  ///< anchor waits for stints to drain
  int in_flight = 0;     ///< tasks between try_start() and finish()
  int parked = 0;        ///< lanes waiting on ready_cv
  int helpers = 0;       ///< recruited stints currently active
  bool aborted = false;  ///< stall detected or a payload threw
  std::exception_ptr first_error;
  std::vector<TaskInterval> gantt(p);
  Traversal completion_order;
  completion_order.reserve(p);
  double total_busy = 0.0;
  // Gantt worker ids for recruited stints: 1..target-1, reused as stints
  // end and new ones are recruited (the anchor is always id 0).
  std::vector<int> free_ids;
  free_ids.reserve(static_cast<std::size_t>(target > 0 ? target - 1 : 0));
  for (int id = target - 1; id >= 1; --id) {
    free_ids.push_back(id);
  }
  Timer run_timer;

  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  if (recorder.enabled()) {
    // One instant names the policy for the whole run; the counter track
    // starts at the initial accountant level (the leaves' inputs).
    recorder.instant(admission_trace_name(schedule.admission), "admission",
                     0, "budget",
                     schedule.memory_budget == kInfiniteWeight
                         ? -1
                         : static_cast<long long>(schedule.memory_budget));
    recorder.counter("memory_entries", "entries",
                     static_cast<long long>(core.current_memory()));
  }

  // Declared as std::function so maybe_recruit (below) can hand the stint
  // to the pool from inside worker_loop (mutual reference).
  std::function<void()> stint;

  auto worker_loop = [&](bool anchor, std::unique_lock<std::mutex>& lock) {
    TM_ASSERT(anchor || !free_ids.empty(),
              "more concurrent stints than crew ids");
    const int worker_id = anchor ? 0 : free_ids.back();
    if (!anchor) {
      free_ids.pop_back();
    }

    // Elastic mode only: recruit pool workers while the schedule shows
    // admissible ready work this stint cannot absorb alone. Called under
    // `lock` at every point new ready work may have appeared.
    auto maybe_recruit = [&] {
      if (!options.lease_idle_workers) {
        return;
      }
      while (!aborted && !core.done() && helpers + 1 < target &&
             core.has_ready()) {
        if (pool.try_dispatch(1, stint) == 0) {
          break;  // nobody idle — the tree makes do with its current crew
        }
        ++helpers;
      }
    };

    while (!aborted && !core.done()) {
      const NodeId node = core.try_start();
      if (node == kNoNode) {
        if (in_flight == 0) {
          // Nothing running, nothing admissible: started subtrees stranded
          // resident files and no completion will ever free memory — the
          // greedy schedule is stuck (the simulator's memory deadlock).
          aborted = true;
          if (recorder.enabled()) {
            recorder.instant("stall", "admission", worker_id, "resident",
                             static_cast<long long>(core.current_memory()));
          }
          ready_cv.notify_all();
          break;
        }
        if (!anchor && options.lease_idle_workers) {
          // Elastic stint end: return to the pool instead of parking —
          // an intra-front lease may have better use for this worker.
          // maybe_recruit() re-recruits when new work readies.
          break;
        }
        if (recorder.enabled()) {
          // Deferred: ready work exists (or will) but nothing admissible
          // under the budget right now — the lane goes idle on purpose.
          recorder.instant("defer", "admission", worker_id, "in_flight",
                           in_flight, "resident",
                           static_cast<long long>(core.current_memory()));
        }
        ++parked;
        ready_cv.wait(lock);
        --parked;
        continue;
      }
      ++in_flight;
      if (recorder.enabled()) {
        recorder.counter("memory_entries", "entries",
                         static_cast<long long>(core.current_memory()));
      }
      maybe_recruit();  // more admissible tasks may still be ready
      lock.unlock();
      if (recorder.enabled()) {
        const TaskLabel label =
            options.trace_labels.empty()
                ? TaskLabel{node, 1}
                : options.trace_labels[static_cast<std::size_t>(node)];
        recorder.begin("front", "exec", worker_id, "node",
                       static_cast<long long>(label.node), "fronts",
                       static_cast<long long>(label.fronts));
      }
      const double start_s = run_timer.elapsed_s();
      bool threw = false;
      try {
        if (body) {
          body(node);
        }
      } catch (...) {
        if (recorder.enabled()) {
          recorder.end("front", "exec", worker_id);
        }
        lock.lock();
        if (!first_error) {
          first_error = std::current_exception();
        }
        aborted = true;
        --in_flight;
        ready_cv.notify_all();
        threw = true;
      }
      if (threw) {
        break;
      }
      const double finish_s = run_timer.elapsed_s();
      if (recorder.enabled()) {
        recorder.end("front", "exec", worker_id);
      }
      lock.lock();
      core.finish(node);  // may ready the parent
      if (recorder.enabled()) {
        recorder.counter("memory_entries", "entries",
                         static_cast<long long>(core.current_memory()));
      }
      --in_flight;
      gantt[static_cast<std::size_t>(node)] = {node, worker_id, start_s,
                                               finish_s};
      completion_order.push_back(node);
      total_busy += finish_s - start_s;
      // Wake every parked lane: the freed memory / new ready parent may
      // unblock any subset of them. With none parked (elastic crews park
      // only the anchor) the notify would be a wasted futex call.
      if (parked > 0) {
        ready_cv.notify_all();
      }
      maybe_recruit();
    }

    if (!anchor) {
      free_ids.push_back(worker_id);
      if (--helpers == 0) {
        helpers_cv.notify_all();
      }
    }
  };

  stint = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    worker_loop(false, lock);
  };

  {
    std::unique_lock<std::mutex> lock(mutex);
    if (options.lease_idle_workers) {
      // Elastic: recruit for the initially-ready leaves; completions
      // re-recruit as the frontier widens.
      while (helpers + 1 < target && core.has_ready() &&
             pool.try_dispatch(1, stint) == 1) {
        ++helpers;
      }
    } else if (target > 1) {
      // Fixed crew: claim the whole complement up front; idle members park
      // on ready_cv until the run ends. A busy pool may yield fewer — the
      // run still completes (the anchor guarantees progress).
      helpers = static_cast<int>(
          pool.try_dispatch(static_cast<unsigned>(target - 1), stint));
    }
    // The calling thread anchors the run: worker id 0, never leaves, so
    // the executor completes even with zero pool workers available.
    worker_loop(true, lock);
    helpers_cv.wait(lock, [&] { return helpers == 0; });
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }

  result.peak_memory = core.peak_memory();
  if (!core.done()) {
    return result;  // feasible = false: the schedule stalled
  }
  TM_ASSERT(core.current_memory() == tree.file_size(tree.root()),
            "execution must end holding exactly the root file");
  result.feasible = true;
  double makespan = 0.0;
  for (const TaskInterval& task : gantt) {
    makespan = std::max(makespan, task.finish);
  }
  result.makespan = makespan;
  result.speedup = total_busy / std::max(makespan, 1e-300);
  result.gantt = std::move(gantt);
  result.completion_order = std::move(completion_order);
  return result;
}

}  // namespace treemem
