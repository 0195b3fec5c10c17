// The persistent two-level worker runtime: one process-wide pool that both
// levels of parallelism draw from.
//
// Before this pool, the runtime was split: tree-level tasks ran on threads
// the executor spawned per factorization, while intra-front trailing
// updates forked fresh std::threads per panel through parallel_for — a
// thread birth every few hundred microseconds of dense work, and two
// worker sets that could not trade capacity (a large root front could not
// absorb the tree-level workers idling beside it). The A64FX multithreaded
// Cholesky line (arXiv:2202.09288) shows tree × node parallelism paying
// off exactly when both levels share one worker set; this pool is that
// substrate.
//
// Model: `size()` workers are spawned once (at pool construction) and park
// on per-slot condvars. Nobody ever spawns a thread afterwards — the
// steady-state hot path performs zero std::thread constructions, a
// property CI pins with the deterministic `threads_spawned` counter.
// Capacity moves between the levels by claiming idle workers:
//
//   * the tree-level executor recruits workers for whole-task stints via
//     try_dispatch() (and, under ExecutorOptions::lease_idle_workers,
//     returns them to the pool whenever the schedule has no ready front);
//   * a front whose trailing update clears the volume gate borrows up to k
//     idle workers via run() for the duration of one panel; they return
//     to the pool as the panel's loop drains.
//
// Claiming is strictly non-blocking: run()/try_dispatch() claim only
// workers that are idle *right now* and may come back empty-handed, in
// which case run() executes the loop inline on the calling thread. A panel
// can therefore never deadlock waiting for capacity the tree level holds,
// and vice versa — the calling thread is always its own guaranteed worker.
//
// Placement is left to the operating system; pin a deployment from the
// outside (e.g. `taskset`).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace treemem {

/// Deterministic pool counters (cumulative since pool construction).
/// threads_spawned is exactly size() forever — the "no thread births on
/// the hot path" contract, gated exactly in bench/check_regression.py.
/// These are the one lease record: nothing else counts leases, so a run's
/// leases are the delta of its pool's stats() across the run (the process
/// pool exports them as treemem_pool_leases_{granted,denied}_total).
struct WorkerPoolStats {
  long long threads_spawned = 0;   ///< == size(); never grows afterwards
  long long leases_granted = 0;    ///< run() calls that claimed >= 1 worker
  long long leases_denied = 0;     ///< run() calls that found none idle
  long long workers_leased = 0;    ///< Σ workers claimed across run() calls
  long long workers_dispatched = 0;///< Σ workers claimed by try_dispatch()
};

class WorkerPool {
 public:
  /// Spawns exactly `size` persistent workers (clamped to >= 1).
  explicit WorkerPool(unsigned size);

  /// The process-wide pool. Sized once, at first use, from
  /// default_thread_count() — which resolves TREEMEM_THREADS /
  /// hardware_concurrency() exactly once instead of per parallel_for call
  /// (the pre-pool facade re-read the environment on every invocation).
  static WorkerPool& instance();

  /// Worker count, fixed at construction.
  unsigned size() const { return static_cast<unsigned>(slots_.size()); }

  /// Workers currently parked (momentary; for observability/tests).
  unsigned idle_workers() const;

  /// parallel_for over [0, count) on up to `max_helpers` idle workers
  /// *plus the calling thread*, with dynamic (atomic counter) index
  /// scheduling. The workers are claimed and armed under one lock and
  /// return to the pool as they finish. Never blocks waiting for capacity:
  /// when none is idle (counted as leases_denied) or max_helpers is 0, the
  /// loop runs inline on the calling thread. Same contract as
  /// support/parallel_for either way: every index executes exactly once
  /// even if bodies throw, and the first exception is rethrown after all
  /// participants drained. The intra-front path: one call per panel.
  void run(unsigned max_helpers, std::size_t count,
           const std::function<void(std::size_t)>& body);

  /// Claims up to max_workers idle workers and hands each one `job` to run
  /// once, asynchronously; each worker returns itself to the pool when the
  /// job returns. Returns the number claimed (possibly 0), never blocks.
  /// The tree-level executor's recruitment primitive: `job` is a whole
  /// scheduling stint, not one loop index. `job` must not throw — stints
  /// route errors through their own channel (an escaped exception
  /// terminates, as from any thread main).
  unsigned try_dispatch(unsigned max_workers,
                        const std::function<void()>& job);

  WorkerPoolStats stats() const;

  /// The one teardown: waits for every outstanding run()/dispatch to
  /// drain, then stops and joins. Never throws — but it *waits*, so a
  /// dispatched job must return before its pool is destroyed.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

 private:
  /// One parked worker. The job is a one-shot handoff cell: the claimer
  /// (run or try_dispatch) stores it and signals; the worker runs it and
  /// re-idles itself.
  struct Slot {
    std::thread thread;
    std::condition_variable cv;
    std::function<void()> job;
  };

  void worker_main(unsigned slot_index);
  /// Under mutex_: moves `slot` back to the idle stack.
  void park_locked(unsigned slot_index);
  /// Claims up to max_workers idle slots and arms each with `job`. Caller
  /// holds mutex_; returns the number claimed.
  unsigned claim_locked(unsigned max_workers,
                        const std::function<void()>& job);

  mutable std::mutex mutex_;
  std::condition_variable all_idle_cv_;  ///< destructor's drain signal
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<unsigned> idle_;  ///< stack of idle slot indices
  bool stopping_ = false;

  // Counters are written under mutex_ but read lock-free by stats().
  std::atomic<long long> threads_spawned_{0};
  std::atomic<long long> leases_granted_{0};
  std::atomic<long long> leases_denied_{0};
  std::atomic<long long> workers_leased_{0};
  std::atomic<long long> workers_dispatched_{0};
};

}  // namespace treemem
