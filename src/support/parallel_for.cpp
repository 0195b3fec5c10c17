#include "support/parallel_for.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <thread>

#include "parallel/worker_pool.hpp"
#include "support/env.hpp"

namespace treemem {

unsigned default_thread_count() {
  // Strict parse through support/env.hpp: a malformed TREEMEM_THREADS
  // throws instead of silently running with a different thread count.
  // Values above 1024 are capped rather than rejected so "very many" keeps
  // meaning "all the parallelism there is" without exhausting thread
  // handles.
  if (const std::optional<long long> env =
          env_int("TREEMEM_THREADS", 1, std::numeric_limits<long long>::max() / 2)) {
    return static_cast<unsigned>(std::min<long long>(*env, 1024));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  unsigned num_threads) {
  if (count == 0) {
    return;
  }
  // The pool resolved TREEMEM_THREADS once at construction; num_threads==0
  // defers to that size instead of re-reading the environment per call.
  unsigned width = num_threads;
  if (width == 0) {
    width = WorkerPool::instance().size();
  }
  if (width > count) {
    width = static_cast<unsigned>(count);
  }
  if (width <= 1) {
    // Inline path: every index executes exactly once on the calling thread
    // and the first exception is rethrown at the end.
    std::exception_ptr inline_error;
    for (std::size_t i = 0; i < count; ++i) {
      try {
        body(i);
      } catch (...) {
        if (!inline_error) {
          inline_error = std::current_exception();
        }
      }
    }
    if (inline_error) {
      std::rethrow_exception(inline_error);
    }
    return;
  }
  // Lease (never spawn, never block): the calling thread participates, so
  // width w needs w-1 helpers. An empty lease — nobody idle — degrades to
  // the inline loop inside run(), same contract.
  WorkerPool::instance().try_lease(width - 1).run(count, body);
}

}  // namespace treemem
