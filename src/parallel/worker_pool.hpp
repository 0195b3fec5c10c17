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
// Capacity moves between the levels by **leasing**:
//
//   * the tree-level executor recruits workers for whole-task stints via
//     try_dispatch() (and, under ExecutorOptions::lease_idle_workers,
//     returns them to the pool whenever the schedule has no ready front);
//   * a front whose trailing update clears the volume gate leases k idle
//     workers via try_lease() for the duration of one panel and returns
//     them at panel end (WorkerLease is RAII — returning is automatic).
//
// Leasing is strictly non-blocking: try_lease()/try_dispatch() claim only
// workers that are idle *right now* and may come back empty-handed, in
// which case the caller runs inline on its own thread. A panel can
// therefore never deadlock waiting for capacity the tree level holds, and
// vice versa — the calling thread is always its own guaranteed worker.
//
// Affinity: TREEMEM_AFFINITY=1 pins worker i to cpu (i mod ncpu) via
// pthread_setaffinity_np at thread start (Linux only; elsewhere the knob
// parses but is a no-op). Off by default — pinning helps dedicated boxes
// and hurts oversubscribed CI runners. Parsed strictly through
// support/env.hpp: a malformed value throws at pool construction.
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

class WorkerPool;

/// Deterministic pool counters (cumulative since pool construction).
/// threads_spawned is exactly size() forever — the "no thread births on
/// the hot path" contract, gated exactly in bench/check_regression.py.
/// These are the one lease record: nothing else counts leases, so a run's
/// leases are the delta of its pool's stats() across the run (the process
/// pool exports them as treemem_pool_leases_{granted,denied}_total).
struct WorkerPoolStats {
  long long threads_spawned = 0;   ///< == size(); never grows afterwards
  long long leases_granted = 0;    ///< try_lease() calls that got >= 1 worker
  long long leases_denied = 0;     ///< try_lease() calls that found none idle
  long long workers_leased = 0;    ///< Σ workers handed out across leases
  long long workers_dispatched = 0;///< Σ workers claimed by try_dispatch()
};

/// RAII handle over k >= 0 leased workers. Move-only; destroying (or
/// run()-ing) the lease returns the workers to the pool. A lease is
/// single-shot: run() consumes the workers.
class WorkerLease {
 public:
  WorkerLease() = default;
  WorkerLease(WorkerLease&& other) noexcept;
  WorkerLease& operator=(WorkerLease&& other) noexcept;
  WorkerLease(const WorkerLease&) = delete;
  WorkerLease& operator=(const WorkerLease&) = delete;
  /// Returns any still-reserved workers to the pool.
  ~WorkerLease();

  /// Leased workers (0 for an empty lease). The effective parallel width
  /// of run() is size() + 1: the calling thread always participates.
  std::size_t size() const { return slots_.size(); }
  bool empty() const { return slots_.empty(); }

  /// parallel_for over [0, count) on the leased workers *plus the calling
  /// thread*, with dynamic (atomic counter) index scheduling. Same
  /// contract as support/parallel_for: every index executes exactly once
  /// even if bodies throw, and the first exception is rethrown after all
  /// participants drained. An empty lease degrades to the inline loop on
  /// the calling thread (same contract). Consumes the lease: the workers
  /// return to the pool as they finish, and size() is 0 afterwards.
  void run(std::size_t count, const std::function<void(std::size_t)>& body);

  /// Returns the workers without running anything (idempotent).
  void release();

 private:
  friend class WorkerPool;
  WorkerLease(WorkerPool* pool, std::vector<unsigned> slots);

  WorkerPool* pool_ = nullptr;
  std::vector<unsigned> slots_;  ///< reserved slot indices
};

class WorkerPool {
 public:
  /// Spawns exactly `size` persistent workers (clamped to >= 1). Reads
  /// TREEMEM_AFFINITY once, here — never on a lease path.
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

  /// True when TREEMEM_AFFINITY=1 resolved at construction (the pinning
  /// itself is Linux-only).
  bool affinity() const { return affinity_; }

  /// Claims up to max_workers idle workers, never blocking: returns an
  /// empty lease (and counts leases_denied) when none are idle. The
  /// intra-front path: the caller runs the panel inline on an empty lease.
  WorkerLease try_lease(unsigned max_workers);

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

  /// Stops and joins all workers. Throws treemem::Error if any worker is
  /// still leased or running — tearing down under an active lease is a
  /// caller bug (the clean-error contract pinned by
  /// tests/parallel/worker_pool_test.cpp). Idempotent once it succeeds.
  void shutdown();

  /// Waits for every outstanding lease/dispatch to drain, then stops and
  /// joins. Never throws — but it *waits*, so release leases before
  /// destroying their pool (RAII makes that the natural order).
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

 private:
  friend class WorkerLease;

  enum class SlotState { kIdle, kReserved, kRunning };

  /// One parked worker. The job is a one-shot handoff cell: the owner (a
  /// lease or try_dispatch) stores it and signals; the worker runs it and
  /// re-idles itself.
  struct Slot {
    std::thread thread;
    std::condition_variable cv;
    SlotState state = SlotState::kIdle;
    std::function<void()> job;
  };

  void worker_main(unsigned slot_index);
  /// Under mutex_: moves `slot` back to the idle stack.
  void park_locked(unsigned slot_index);
  /// Returns reserved-but-unused slots (lease release / destructor path).
  void release_reserved(const std::vector<unsigned>& slots);
  /// Arms `slot` with `job` and wakes it. Caller holds mutex_; the slot
  /// must be kReserved (lease) or freshly claimed (dispatch).
  void arm_locked(unsigned slot_index, std::function<void()> job);

  mutable std::mutex mutex_;
  std::condition_variable all_idle_cv_;  ///< destructor's drain signal
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<unsigned> idle_;  ///< stack of idle slot indices
  bool stopping_ = false;
  bool affinity_ = false;

  // Counters are written under mutex_ but read lock-free by stats().
  std::atomic<long long> threads_spawned_{0};
  std::atomic<long long> leases_granted_{0};
  std::atomic<long long> leases_denied_{0};
  std::atomic<long long> workers_leased_{0};
  std::atomic<long long> workers_dispatched_{0};
};

}  // namespace treemem
