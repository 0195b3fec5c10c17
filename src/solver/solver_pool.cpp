#include "solver/solver_pool.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "obs/stats_fields.hpp"
#include "support/parallel_for.hpp"
#include "support/timer.hpp"

namespace treemem {

SolverStats aggregate_solver_stats(const std::vector<SolverStats>& stats) {
  // One fold per field, driven by the table in obs/stats_fields.hpp —
  // the sum/max lists live there (and only there), shared with the
  // metrics exporter below, so a new SolverStats field cannot be
  // aggregated and not exported, or vice versa.
  SolverStats total;
  for (const SolverStats& s : stats) {
    obs::merge_solver_stats(total, s);
  }
  return total;
}

SolverPool::SolverPool(SolverPoolOptions options)
    : options_(std::move(options)),
      cache_(SymbolicCacheOptions{options_.solver.analyze,
                                  options_.solver.plan,
                                  options_.cache_entries,
                                  options_.cache_bytes}),
      accountant_(options_.memory_budget) {
  TM_CHECK(options_.workers >= 0,
           "SolverPool: workers must be >= 0 (0 = default)");
  TM_CHECK(options_.memory_budget > 0,
           "SolverPool: memory budget must be positive");
  const int workers = options_.workers > 0
                          ? options_.workers
                          : static_cast<int>(default_thread_count());
  worker_stats_.resize(static_cast<std::size_t>(workers));
  solvers_.reserve(static_cast<std::size_t>(workers));
  threads_.reserve(static_cast<std::size_t>(workers));
  for (int id = 0; id < workers; ++id) {
    solvers_.push_back(std::make_unique<Solver>(options_.solver));
  }
  for (int id = 0; id < workers; ++id) {
    threads_.emplace_back([this, id] { worker_loop(id); });
  }
  // Every line of the service's exposition comes from state the pool
  // already keeps: the latency histogram, the symbolic cache Stats, and the
  // aggregated SolverStats rendered field-by-field from the same table
  // that drives aggregate_solver_stats. Removed in the destructor before
  // anything the lambda reads is torn down.
  metrics_token_ = obs::MetricsRegistry::instance().add_exporter([this] {
    std::string text;
    text += obs::format_histogram("treemem_solve_latency_seconds", "",
                                  solve_latency_);
    const SymbolicCache::Stats sym = cache_stats();
    text += obs::format_counter("treemem_symbolic_cache_hits_total", "",
                                sym.hits);
    text += obs::format_counter("treemem_symbolic_cache_misses_total", "",
                                sym.misses);
    text += obs::format_counter("treemem_symbolic_cache_evictions_total", "",
                                sym.evictions);
    text += obs::format_gauge("treemem_symbolic_cache_entries", "",
                              static_cast<double>(sym.entries));
    text += obs::format_gauge("treemem_symbolic_cache_resident_bytes", "",
                              static_cast<double>(sym.resident_bytes));
    const SolverStats total = aggregated_stats();
    obs::for_each_stat_field([&](const char* name, obs::StatMerge merge,
                                 auto member) {
      const auto value = total.*member;
      const std::string metric = std::string("treemem_solver_") + name;
      if (merge != obs::StatMerge::kTotal) {
        text += obs::format_gauge(metric, "", static_cast<double>(value));
      } else if constexpr (std::is_floating_point_v<decltype(value)>) {
        text += obs::format_counter(metric, "", static_cast<double>(value));
      } else {
        text += obs::format_counter(metric, "",
                                    static_cast<long long>(value));
      }
    });
    return text;
  });
}

SolverPool::~SolverPool() {
  obs::MetricsRegistry::instance().remove_exporter(metrics_token_);
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& thread : threads_) {
    thread.join();
  }
}

std::future<SolveOutcome> SolverPool::submit(SolveRequest request) {
  Job job;
  job.request = std::move(request);
  std::future<SolveOutcome> future = job.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    TM_CHECK(!stopping_, "SolverPool::submit: pool is shutting down");
    queue_.push_back(std::move(job));
  }
  queue_cv_.notify_one();
  return future;
}

SolveOutcome SolverPool::solve(SolveRequest request) {
  return submit(std::move(request)).get();
}

void SolverPool::worker_loop(int id) {
  Solver& solver = *solvers_[static_cast<std::size_t>(id)];
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping, and every queued job has been drained
      }
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      SolveOutcome outcome = run_job(solver, job.request);
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        worker_stats_[static_cast<std::size_t>(id)] = solver.stats();
      }
      // Observed before the future becomes ready, so a caller that has
      // every outcome in hand also sees every observation.
      solve_latency_.observe(job.submitted.elapsed_s());
      job.promise.set_value(std::move(outcome));
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        worker_stats_[static_cast<std::size_t>(id)] = solver.stats();
      }
      job.promise.set_exception(std::current_exception());
    }
  }
}

Weight SolverPool::admission_charge(Weight planned_peak) const {
  // Clamp to the budget so one oversized job runs alone (serialized by the
  // gate) instead of waiting forever for room that can never exist.
  return std::min(planned_peak, options_.memory_budget);
}

void SolverPool::acquire_memory(Weight charge) {
  std::unique_lock<std::mutex> lock(memory_mutex_);
  memory_cv_.wait(lock, [&] { return accountant_.try_acquire(charge); });
}

void SolverPool::release_memory(Weight charge) {
  // Releases take the mutex so a waiter cannot miss the wakeup between
  // its failed predicate check and blocking.
  {
    std::lock_guard<std::mutex> lock(memory_mutex_);
    accountant_.adjust(-charge);
  }
  memory_cv_.notify_all();
}

SolveOutcome SolverPool::run_job(Solver& solver, SolveRequest& request) {
  Timer timer;
  SolveOutcome outcome;

  const SparsePattern& pattern = request.matrix.pattern();
  if (options_.use_cache) {
    SymbolicCache::LookupResult looked = cache_.lookup(pattern);
    outcome.cache_hit = looked.hit;
    solver.adopt(std::move(looked.symbolic));
  } else {
    // Cold-analyze baseline: redo the full symbolic phase per request.
    // Built in a scratch solver and adopt()ed so the worker solver's
    // cumulative counters survive (analyze() on it would reset them).
    SolverOptions serial;
    serial.factorize.workers = 1;
    Solver scratch(serial);
    scratch.analyze(pattern, options_.solver.analyze)
        .plan(options_.solver.plan);
    solver.adopt(scratch.symbolic());
  }

  // Request-level parallelism is the pool's: each job runs the serial
  // engine on one worker whose kernel leases no WorkerPool threads on top
  // of the pool's own (see the header).
  FactorizeOptions factorize = options_.solver.factorize;
  factorize.workers = 1;
  factorize.kernel.workers = 1;

  const Weight charge = admission_charge(solver.stats().planned_peak_entries);
  acquire_memory(charge);
  try {
    solver.factorize(request.matrix, factorize);
    outcome.solutions = solver.solve(request.rhs);
  } catch (...) {
    release_memory(charge);
    throw;
  }
  release_memory(charge);

  outcome.seconds = timer.elapsed_s();
  return outcome;
}

std::vector<SolverStats> SolverPool::solver_stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return worker_stats_;
}

SolverStats SolverPool::aggregated_stats() const {
  return aggregate_solver_stats(solver_stats());
}

}  // namespace treemem
