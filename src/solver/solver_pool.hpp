// SolverPool — many tenants, one solver service.
//
// A pool of worker threads, each owning a persistent Solver, serving
// SolveRequests (a matrix plus a batch of right-hand sides) submitted from
// any thread. The workers share one SymbolicCache, so a request whose
// sparsity pattern was seen before skips straight to the numeric phase —
// the service's steady-state fast path — while cold patterns pay
// analyze+plan exactly once. Results come back through std::future, and
// throughput statistics (per-solver and aggregated) are race-free
// snapshots taken as each job completes.
//
// Memory admission: the pool gates in-flight factorizations on a shared
// MemoryAccountant. Each job charges its plan's modeled Eq. 1 peak
// against the pool budget before factorizing and releases it after its
// solves finish; jobs that do not fit wait. Those peaks are all the
// accountant holds: no factor outlives its job, and a repeated (pattern,
// values) request is factorized again. A single job larger than the
// whole budget is admitted alone (clamped charge) so it serializes
// instead of deadlocking. With the default infinite budget the gate is
// free.
//
// Engine: request-level parallelism comes from the pool's workers, so
// every job factorizes with one worker — the serial engine — and a front
// kernel that never leases WorkerPool threads. A per-job parallel engine
// would grab every core per job and oversubscribe W-fold; the factor is
// bit-identical either way. The `workers` and `kernel.workers` of
// SolverPoolOptions::solver.factorize are therefore overridden.
//
// Latency: solve_latency() times each job from submit() to its ready
// outcome, so queue and admission waits count; SolveOutcome::seconds is
// the service time alone.
//
// The `use_cache = false` mode re-runs the full symbolic phase for every
// request — the cold-analyze baseline bench/solver_service.cpp compares
// the cache against. Numeric results are identical either way (cache hits
// are bit-exact).
#pragma once

#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "parallel/schedule_core.hpp"
#include "solver/solver.hpp"
#include "solver/symbolic_cache.hpp"
#include "sparse/matrix.hpp"
#include "support/timer.hpp"

namespace treemem {

struct SolverPoolOptions {
  /// Worker threads (each with its own persistent Solver); 0 defers to
  /// default_thread_count() (which honors TREEMEM_THREADS).
  int workers = 0;
  /// Share symbolic state across requests via the SymbolicCache. False =
  /// the cold-analyze baseline: every request redoes ordering, assembly
  /// tree and planning.
  bool use_cache = true;
  /// Phase options applied to every request (analyze/plan feed the cache
  /// key configuration; factorize applies per job, on one worker as
  /// described above).
  SolverOptions solver;
  /// Pool-wide budget on the sum of in-flight plans' modeled peaks
  /// (entries, Eq. 1 accounting). kInfiniteWeight = no admission gate.
  Weight memory_budget = kInfiniteWeight;
  /// LRU caps forwarded to the SymbolicCache (0 = unbounded): bound the
  /// symbolic state a service under pattern churn keeps resident.
  std::size_t cache_entries = 0;
  std::size_t cache_bytes = 0;
};

/// One unit of service: factorize `matrix`, then solve every column of
/// `rhs` against it. `rhs` may be empty (factorize only).
struct SolveRequest {
  SymmetricMatrix matrix;
  std::vector<std::vector<double>> rhs;
};

struct SolveOutcome {
  std::vector<std::vector<double>> solutions;  ///< one per rhs column
  bool cache_hit = false;  ///< symbolic state came from the cache
  double seconds = 0.0;    ///< service time (symbolic+factorize+solves)
};

/// Sum of per-solver cumulative counters (factorizations, rhs_solved, the
/// per-phase seconds, flops); peaks aggregate by max. Labels (ordering,
/// strategy, engine) are per-run fields and stay empty in the aggregate.
SolverStats aggregate_solver_stats(const std::vector<SolverStats>& stats);

class SolverPool {
 public:
  explicit SolverPool(SolverPoolOptions options = {});
  /// Drains every queued job, then joins the workers.
  ~SolverPool();

  SolverPool(const SolverPool&) = delete;
  SolverPool& operator=(const SolverPool&) = delete;

  /// Enqueues a request; the future delivers the outcome (or rethrows the
  /// job's exception). Thread-safe.
  std::future<SolveOutcome> submit(SolveRequest request);

  /// Synchronous convenience: submit + wait.
  SolveOutcome solve(SolveRequest request);

  int workers() const { return static_cast<int>(threads_.size()); }
  SymbolicCache& cache() { return cache_; }
  SymbolicCache::Stats cache_stats() const { return cache_.stats(); }

  /// Stats snapshot of each worker's Solver as of its last completed job
  /// (index = worker id). Race-free regardless of in-flight work.
  std::vector<SolverStats> solver_stats() const;
  /// aggregate_solver_stats(solver_stats()).
  SolverStats aggregated_stats() const;

  /// End-to-end latency distribution: one observation per completed job,
  /// from submit() to its ready outcome, queue and admission wait included
  /// — the latency tenants see.
  const obs::Histogram& solve_latency() const { return solve_latency_; }

 private:
  struct Job {
    SolveRequest request;
    std::promise<SolveOutcome> promise;
    Timer submitted;  ///< started in submit(); read for solve_latency()
  };

  void worker_loop(int id);
  SolveOutcome run_job(Solver& solver, SolveRequest& request);
  Weight admission_charge(Weight planned_peak) const;
  /// Blocks until `charge` fits the accountant.
  void acquire_memory(Weight charge);
  void release_memory(Weight charge);

  SolverPoolOptions options_;
  SymbolicCache cache_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  bool stopping_ = false;

  MemoryAccountant accountant_;
  std::mutex memory_mutex_;
  std::condition_variable memory_cv_;

  mutable std::mutex stats_mutex_;
  std::vector<SolverStats> worker_stats_;

  /// Observed in worker_loop as each job completes; the exporter renders it
  /// as `treemem_solve_latency_seconds`.
  obs::Histogram solve_latency_{obs::Histogram::exponential_bounds(1e-6,
                                                                   10.0)};
  std::uint64_t metrics_token_ = 0;  ///< exporter registration handle

  std::vector<std::unique_ptr<Solver>> solvers_;
  std::vector<std::thread> threads_;
};

}  // namespace treemem
