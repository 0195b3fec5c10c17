#include "support/parallel_for.hpp"

#include <algorithm>
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
  // The pool resolved TREEMEM_THREADS once at construction; num_threads==0
  // defers to that size instead of re-reading the environment per call.
  WorkerPool& pool = WorkerPool::instance();
  const std::size_t width =
      std::min<std::size_t>(num_threads == 0 ? pool.size() : num_threads,
                            count);
  // The calling thread participates, so width w needs w-1 helpers; a
  // width of 1 (or nobody idle) runs the loop inline inside run().
  pool.run(width > 1 ? static_cast<unsigned>(width - 1) : 0, count, body);
}

}  // namespace treemem
