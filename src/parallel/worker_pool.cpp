#include "parallel/worker_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/parallel_for.hpp"

namespace treemem {

WorkerPool::WorkerPool(unsigned size) {
  const unsigned n = std::max(1u, size);
  slots_.reserve(n);
  idle_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
  // All slots exist before any thread starts: worker_main indexes slots_.
  for (unsigned i = 0; i < n; ++i) {
    slots_[i]->thread = std::thread([this, i] { worker_main(i); });
    idle_.push_back(i);
  }
  threads_spawned_.store(static_cast<long long>(n),
                         std::memory_order_relaxed);
}

WorkerPool& WorkerPool::instance() {
  // Meyers singleton: sized on first use from the resolved-once thread
  // count (TREEMEM_THREADS / hardware_concurrency, capped at 1024 by
  // default_thread_count), torn down at static destruction — after which
  // no treemem code runs, so the destructor's drain-and-join is safe.
  static WorkerPool pool(default_thread_count());
  // The process pool's counters in the metrics exposition. Registered
  // after `pool`, so the registry outlives nothing that dumps it: it is
  // destroyed first at teardown, taking the exporter (and its pool
  // reference) with it. Private pools (tests, benches) stay unregistered
  // — process metrics describe the process pool.
  static const bool exporter_registered = [] {
    obs::MetricsRegistry::instance().add_exporter([] {
      const WorkerPoolStats s = pool.stats();
      std::string text;
      text += obs::format_gauge("treemem_pool_threads_spawned", "",
                                static_cast<double>(s.threads_spawned));
      text += obs::format_counter("treemem_pool_leases_granted_total", "",
                                  s.leases_granted);
      text += obs::format_counter("treemem_pool_leases_denied_total", "",
                                  s.leases_denied);
      text += obs::format_counter("treemem_pool_workers_leased_total", "",
                                  s.workers_leased);
      text += obs::format_counter("treemem_pool_workers_dispatched_total", "",
                                  s.workers_dispatched);
      return text;
    });
    return true;
  }();
  (void)exporter_registered;
  return pool;
}

unsigned WorkerPool::idle_workers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<unsigned>(idle_.size());
}

void WorkerPool::worker_main(unsigned slot_index) {
  Slot& slot = *slots_[slot_index];
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    slot.cv.wait(lock, [&] { return stopping_ || slot.job != nullptr; });
    if (slot.job) {
      std::function<void()> job = std::move(slot.job);
      slot.job = nullptr;
      lock.unlock();
      {
        obs::TraceSpan stint("stint", "pool", obs::TraceRecorder::kNoLane,
                             "slot", static_cast<long long>(slot_index));
        job();  // must not throw (documented contract of dispatch/run jobs)
      }
      lock.lock();
      park_locked(slot_index);
      continue;  // re-check: a stop may have been requested meanwhile
    }
    return;  // stopping_ with no job
  }
}

void WorkerPool::park_locked(unsigned slot_index) {
  idle_.push_back(slot_index);
  if (idle_.size() == slots_.size()) {
    all_idle_cv_.notify_all();
  }
}

unsigned WorkerPool::claim_locked(unsigned max_workers,
                                  const std::function<void()>& job) {
  unsigned claimed = 0;
  while (!stopping_ && claimed < max_workers && !idle_.empty()) {
    Slot& slot = *slots_[idle_.back()];
    idle_.pop_back();
    slot.job = job;
    slot.cv.notify_one();
    ++claimed;
  }
  return claimed;
}

void WorkerPool::run(unsigned max_helpers, std::size_t count,
                     const std::function<void(std::size_t)>& body) {
  if (count == 0) {
    return;
  }
  // Shared loop state. Heap-allocated via shared_ptr: a helper may still
  // be inside its drain wrapper (after its last fetch_add, before its
  // final deref) when the caller's wait is satisfied, so the state must
  // outlive this frame by reference count, not by scope.
  struct LoopState {
    std::atomic<std::size_t> next{0};
    std::size_t count = 0;
    const std::function<void(std::size_t)>* body = nullptr;
    std::mutex mutex;  ///< guards first_error and active
    std::exception_ptr first_error;
    std::condition_variable done_cv;
    unsigned active = 0;  ///< claimed helpers still draining

    void drain() {
      while (true) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) {
          return;
        }
        try {
          (*body)(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mutex);
          if (!first_error) {
            first_error = std::current_exception();
          }
        }
      }
    }
  };
  auto state = std::make_shared<LoopState>();
  state->count = count;
  state->body = &body;

  unsigned claimed = 0;
  if (max_helpers > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    // Helpers cannot start before this lock is released, so `active` is
    // set before any of them can decrement it.
    claimed = claim_locked(max_helpers, [state] {
      state->drain();
      std::lock_guard<std::mutex> done_lock(state->mutex);
      if (--state->active == 0) {
        state->done_cv.notify_all();
      }
    });
    state->active = claimed;
    if (claimed == 0) {
      leases_denied_.fetch_add(1, std::memory_order_relaxed);
    } else {
      leases_granted_.fetch_add(1, std::memory_order_relaxed);
      workers_leased_.fetch_add(static_cast<long long>(claimed),
                                std::memory_order_relaxed);
    }
  }
  // Emitted outside the pool lock; denied claims are the instants that
  // explain an inline panel on the timeline.
  if (max_helpers > 0) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
    if (recorder.enabled()) {
      recorder.instant(claimed == 0 ? "lease_deny" : "lease_grant", "pool",
                       obs::TraceRecorder::kNoLane, "requested",
                       static_cast<long long>(max_helpers), "granted",
                       static_cast<long long>(claimed));
    }
  }

  state->drain();  // the calling thread is always a participant
  std::unique_lock<std::mutex> lock(state->mutex);
  state->done_cv.wait(lock, [&] { return state->active == 0; });
  if (state->first_error) {
    std::rethrow_exception(state->first_error);
  }
}

unsigned WorkerPool::try_dispatch(unsigned max_workers,
                                  const std::function<void()>& job) {
  std::lock_guard<std::mutex> lock(mutex_);
  const unsigned claimed = claim_locked(max_workers, job);
  workers_dispatched_.fetch_add(static_cast<long long>(claimed),
                                std::memory_order_relaxed);
  return claimed;
}

WorkerPoolStats WorkerPool::stats() const {
  WorkerPoolStats s;
  s.threads_spawned = threads_spawned_.load(std::memory_order_relaxed);
  s.leases_granted = leases_granted_.load(std::memory_order_relaxed);
  s.leases_denied = leases_denied_.load(std::memory_order_relaxed);
  s.workers_leased = workers_leased_.load(std::memory_order_relaxed);
  s.workers_dispatched = workers_dispatched_.load(std::memory_order_relaxed);
  return s;
}

WorkerPool::~WorkerPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Claimed workers self-park when their jobs return: run() waits for
    // its helpers before returning, and a dispatched stint ends on its own.
    all_idle_cv_.wait(lock, [&] { return idle_.size() == slots_.size(); });
    stopping_ = true;
    for (const std::unique_ptr<Slot>& slot : slots_) {
      slot->cv.notify_all();
    }
  }
  for (const std::unique_ptr<Slot>& slot : slots_) {
    if (slot->thread.joinable()) {
      slot->thread.join();
    }
  }
}

}  // namespace treemem
