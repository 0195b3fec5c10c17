// The service layer on the Solver facade (solver/symbolic_cache.hpp,
// solver/solver_pool.hpp) plus the concurrency contract of Solver itself.
//
// Pinned properties:
//   * cache hits are bit-exact: a solver adopting cached symbolic state
//     factorizes to the identical factor (every bit of every value) a
//     cold analyze+plan+factorize run produces, and the adopted state is
//     shared (same SolverAnalysis/SolverPlan objects), not copied;
//   * the cache keys on structure: same pattern → one entry regardless of
//     lookup count or thread count; different patterns → different
//     entries, even when built concurrently;
//   * Solver::solve is thread-safe on a shared factorized instance: the
//     cumulative counters come out exact under concurrent solves (this
//     binary runs under TSan in CI, so a data race on the counters —
//     the pre-service bug — fails the job);
//   * multi-RHS solve counts rhs_solved per column, not per call;
//   * SolverPool returns exactly what a lone Solver computes, its
//     aggregated stats equal aggregate_solver_stats(solver_stats()) with
//     the full request volume accounted, job errors propagate through the
//     future without killing the worker, and a budget-gated pool still
//     completes every request;
//   * solve_latency() times a job from submit(), so queue wait counts,
//     while SolveOutcome::seconds stays the service time;
//   * adopt() preserves cumulative counters (a pooled solver's lifetime
//     totals survive pattern switches) while analyze() resets them.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

#include "perf/traffic.hpp"
#include "solver/solver.hpp"
#include "solver/solver_pool.hpp"
#include "solver/symbolic_cache.hpp"
#include "sparse/generators.hpp"
#include "support/prng.hpp"

namespace treemem {
namespace {

std::vector<double> seeded_rhs(Index n, std::uint64_t seed) {
  Prng prng(seed);
  std::vector<double> rhs(static_cast<std::size_t>(n));
  for (double& v : rhs) {
    v = prng.uniform_real(-1.0, 1.0);
  }
  return rhs;
}

TEST(SymbolicCache, HitFactorizesBitIdenticalToColdRun) {
  const SparsePattern pattern = symmetrize(gen::grid2d(9, 9));
  const SymmetricMatrix matrix = make_spd_matrix(pattern, 77);

  SymbolicCache cache;
  ASSERT_FALSE(cache.lookup(pattern).hit);  // cold: builds the entry
  const SymbolicCache::LookupResult looked = cache.lookup(pattern);
  ASSERT_TRUE(looked.hit);

  Solver warm;
  warm.adopt(looked.symbolic);
  warm.factorize(matrix);

  Solver cold;
  cold.analyze(pattern).plan().factorize(matrix);

  ASSERT_EQ(warm.factor().values.size(), cold.factor().values.size());
  for (std::size_t i = 0; i < cold.factor().values.size(); ++i) {
    EXPECT_EQ(warm.factor().values[i], cold.factor().values[i]) << "at " << i;
  }
  EXPECT_EQ(warm.factor().fronts->row_idx, cold.factor().fronts->row_idx);
}

TEST(SymbolicCache, SharesStateAndKeysOnStructure) {
  const SparsePattern a = symmetrize(gen::grid2d(7, 7));
  const SparsePattern b = symmetrize(gen::arrowhead(49, 5));

  SymbolicCache cache;
  const SolverSymbolic first = cache.lookup(a).symbolic;
  const SolverSymbolic again = cache.lookup(a).symbolic;
  // Shared, not rebuilt or copied: the same immutable objects.
  EXPECT_EQ(first.analysis.get(), again.analysis.get());
  EXPECT_EQ(first.plan.get(), again.plan.get());

  cache.lookup(b);
  const SymbolicCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 2);

  EXPECT_NE(pattern_fingerprint(a), pattern_fingerprint(b));
  EXPECT_EQ(pattern_fingerprint(a), pattern_fingerprint(a));
}

TEST(SymbolicCache, ConcurrentLookupsBuildOneEntryPerPattern) {
  const std::vector<SparsePattern> patterns = {
      symmetrize(gen::grid2d(6, 6)),
      symmetrize(gen::grid2d(7, 7)),
      symmetrize(gen::grid2d(8, 8)),
  };
  SymbolicCache cache;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t p = 0; p < patterns.size(); ++p) {
        const SolverSymbolic symbolic =
            cache.lookup(patterns[(p + static_cast<std::size_t>(t)) %
                                  patterns.size()])
                .symbolic;
        ASSERT_TRUE(static_cast<bool>(symbolic));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const SymbolicCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, patterns.size());
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<long long>(kThreads * patterns.size()));
}

TEST(SymbolicCache, AcquireYieldsPlannedSolver) {
  const SparsePattern pattern = symmetrize(gen::grid2d(6, 6));
  SymbolicCache cache;
  Solver solver = cache.acquire(pattern);
  EXPECT_TRUE(solver.planned());
  EXPECT_FALSE(solver.factorized());
  solver.factorize(make_spd_matrix(pattern, 3));
  const std::vector<double> rhs = seeded_rhs(pattern.cols(), 11);
  const std::vector<double> x = solver.solve(rhs);
  EXPECT_LT(relative_residual(make_spd_matrix(pattern, 3), x, rhs), 1e-12);
}

TEST(Solver, SymbolicRequiresPlanAndAdoptValidates) {
  Solver unplanned;
  EXPECT_THROW(unplanned.symbolic(), Error);
  unplanned.analyze(symmetrize(gen::grid2d(5, 5)));
  EXPECT_THROW(unplanned.symbolic(), Error);  // analyzed but not planned
  Solver other;
  EXPECT_THROW(other.adopt(SolverSymbolic{}), Error);
}

TEST(Solver, AdoptPreservesCumulativeCountersAnalyzeResets) {
  const SparsePattern a = symmetrize(gen::grid2d(6, 6));
  const SparsePattern b = symmetrize(gen::grid2d(7, 7));
  SymbolicCache cache;

  Solver solver = cache.acquire(a);
  solver.factorize(make_spd_matrix(a, 1));
  solver.solve(seeded_rhs(a.cols(), 1));
  EXPECT_EQ(solver.stats().rhs_solved, 1);
  EXPECT_EQ(solver.stats().factorizations, 1);

  // Switching patterns via adopt keeps the lifetime totals...
  solver.adopt(cache.lookup(b).symbolic);
  EXPECT_EQ(solver.stats().factorizations, 1);
  solver.factorize(make_spd_matrix(b, 2));
  solver.solve(seeded_rhs(b.cols(), 2));
  EXPECT_EQ(solver.stats().rhs_solved, 2);
  EXPECT_EQ(solver.stats().factorizations, 2);
  EXPECT_EQ(solver.stats().n, b.cols());  // reporting follows the adoptee

  // ...while analyze() starts a fresh ledger (the documented contract).
  solver.analyze(a);
  EXPECT_EQ(solver.stats().rhs_solved, 0);
  EXPECT_EQ(solver.stats().factorizations, 0);
}

TEST(Solver, ConcurrentSolvesCountExactly) {
  const SparsePattern pattern = symmetrize(gen::grid2d(8, 8));
  const SymmetricMatrix matrix = make_spd_matrix(pattern, 5);
  Solver solver;
  solver.analyze(pattern).plan().factorize(matrix);

  constexpr int kThreads = 8;
  constexpr int kSolvesPerThread = 16;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int s = 0; s < kSolvesPerThread; ++s) {
        const std::vector<double> rhs =
            seeded_rhs(pattern.cols(),
                       static_cast<std::uint64_t>(t * 1000 + s + 1));
        const std::vector<double> x = solver.solve(rhs);
        if (relative_residual(matrix, x, rhs) > 1e-12) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  const SolverStats stats = solver.stats();
  EXPECT_EQ(stats.rhs_solved, kThreads * kSolvesPerThread);
  EXPECT_GE(stats.solve_seconds, 0.0);
}

TEST(Solver, MultiRhsCountsPerColumn) {
  const SparsePattern pattern = symmetrize(gen::grid2d(6, 6));
  Solver solver;
  solver.analyze(pattern).plan().factorize(make_spd_matrix(pattern, 9));
  const std::vector<std::vector<double>> rhs = {
      seeded_rhs(pattern.cols(), 1),
      seeded_rhs(pattern.cols(), 2),
      seeded_rhs(pattern.cols(), 3),
  };
  solver.solve(rhs);
  EXPECT_EQ(solver.stats().rhs_solved, 3);  // one per column, not per call
  solver.solve(rhs[0]);
  EXPECT_EQ(solver.stats().rhs_solved, 4);
}

TEST(SolverPool, MatchesLoneSolverAndAggregatesExactly) {
  const TrafficOptions traffic{.patterns = 3,
                               .requests = 24,
                               .grid_base = 6,
                               .max_rhs = 3,
                               .seed = 99};
  const ServiceTrace trace = build_service_trace(traffic);

  SolverPoolOptions options;
  options.workers = 4;
  SolverPool pool(options);

  std::vector<std::future<SolveOutcome>> futures;
  futures.reserve(trace.requests.size());
  for (const ServiceRequest& request : trace.requests) {
    futures.push_back(pool.submit(materialize_request(trace, request)));
  }

  long long columns = 0;
  for (std::size_t r = 0; r < trace.requests.size(); ++r) {
    SolveOutcome outcome = futures[r].get();
    const SolveRequest reference =
        materialize_request(trace, trace.requests[r]);
    ASSERT_EQ(outcome.solutions.size(), reference.rhs.size());
    columns += static_cast<long long>(outcome.solutions.size());

    // The pool's answer is the lone facade's answer, bit for bit.
    Solver lone;
    lone.analyze(reference.matrix.pattern()).plan().factorize(
        reference.matrix);
    for (std::size_t c = 0; c < reference.rhs.size(); ++c) {
      EXPECT_EQ(outcome.solutions[c], lone.solve(reference.rhs[c]))
          << "request " << r << " column " << c;
    }
  }

  const std::vector<SolverStats> per_solver = pool.solver_stats();
  const SolverStats aggregated = pool.aggregated_stats();
  const SolverStats expected = aggregate_solver_stats(per_solver);
  EXPECT_EQ(aggregated.rhs_solved, expected.rhs_solved);
  EXPECT_EQ(aggregated.factorizations, expected.factorizations);
  EXPECT_EQ(aggregated.flops, expected.flops);
  EXPECT_DOUBLE_EQ(aggregated.solve_seconds, expected.solve_seconds);

  // Nothing lost: the workers together served every request and column.
  EXPECT_EQ(aggregated.rhs_solved, columns);
  EXPECT_EQ(aggregated.factorizations,
            static_cast<int>(trace.requests.size()));

  // Reuse-heavy trace through one cache: misses == distinct patterns.
  const SymbolicCache::Stats cache = pool.cache_stats();
  EXPECT_EQ(cache.misses, traffic.patterns);
  EXPECT_EQ(cache.hits,
            static_cast<long long>(trace.requests.size()) - traffic.patterns);
}

TEST(SolverPool, ColdModeMatchesCachedResults) {
  const TrafficOptions traffic{
      .patterns = 2, .requests = 8, .grid_base = 6, .max_rhs = 2, .seed = 7};
  const ServiceTrace trace = build_service_trace(traffic);

  SolverPoolOptions cached_options;
  cached_options.workers = 2;
  SolverPoolOptions cold_options;
  cold_options.workers = 2;
  cold_options.use_cache = false;
  SolverPool cached(cached_options);
  SolverPool cold(cold_options);

  for (const ServiceRequest& request : trace.requests) {
    SolveOutcome a = cached.solve(materialize_request(trace, request));
    SolveOutcome b = cold.solve(materialize_request(trace, request));
    ASSERT_EQ(a.solutions.size(), b.solutions.size());
    for (std::size_t c = 0; c < a.solutions.size(); ++c) {
      EXPECT_EQ(a.solutions[c], b.solutions[c]);
    }
  }
  EXPECT_EQ(cold.cache_stats().hits + cold.cache_stats().misses, 0);
}

TEST(SolverPool, BudgetGateStillCompletesEveryRequest) {
  const SparsePattern pattern = symmetrize(gen::grid2d(8, 8));
  // Probe the plan's modeled peak, then give the pool barely one job's
  // worth: jobs must serialize through the gate yet all finish.
  Solver probe;
  probe.analyze(pattern).plan();
  const Weight peak = probe.stats().planned_peak_entries;

  SolverPoolOptions options;
  options.workers = 4;
  options.memory_budget = peak + peak / 2;  // < 2 concurrent jobs
  SolverPool pool(options);

  std::vector<std::future<SolveOutcome>> futures;
  for (int r = 0; r < 12; ++r) {
    SolveRequest request;
    request.matrix = make_spd_matrix(pattern, static_cast<std::uint64_t>(r));
    request.rhs = {seeded_rhs(pattern.cols(), static_cast<std::uint64_t>(r))};
    futures.push_back(pool.submit(std::move(request)));
  }
  for (std::future<SolveOutcome>& future : futures) {
    EXPECT_EQ(future.get().solutions.size(), 1u);
  }
  EXPECT_EQ(pool.aggregated_stats().factorizations, 12);
}

TEST(SolverPool, SolveLatencyIncludesQueueWait) {
  // One worker, six requests queued at once: every request after the first
  // waits in the queue for the ones ahead of it, and that wait is latency
  // a tenant sees but no job's service time contains.
  const SparsePattern pattern = symmetrize(gen::grid2d(24, 24));
  SolverPoolOptions options;
  options.workers = 1;
  SolverPool pool(options);
  SolveRequest warmup;
  warmup.matrix = make_spd_matrix(pattern, 1);
  pool.solve(std::move(warmup));  // the timed jobs all hit the cache
  const double warmup_latency = pool.solve_latency().sum();

  std::vector<SolveRequest> requests(6);
  for (std::size_t r = 0; r < requests.size(); ++r) {
    requests[r].matrix = make_spd_matrix(pattern, 10 + r);
    requests[r].rhs = {seeded_rhs(pattern.cols(), r)};
  }
  std::vector<std::future<SolveOutcome>> futures;
  for (SolveRequest& request : requests) {
    futures.push_back(pool.submit(std::move(request)));
  }
  std::vector<double> service;
  for (std::future<SolveOutcome>& future : futures) {
    service.push_back(future.get().seconds);
  }
  EXPECT_EQ(pool.solve_latency().count(), 7);
  EXPECT_GE(pool.solve_latency().sum() - warmup_latency,
            std::accumulate(service.begin(), service.end(), 0.0) +
                service.front());
}

TEST(SolverPool, JobErrorsPropagateWithoutKillingWorkers) {
  const SparsePattern pattern = symmetrize(gen::grid2d(6, 6));
  SolverPoolOptions options;
  options.workers = 2;
  SolverPool pool(options);

  // An indefinite matrix (negated SPD) must fail factorization inside the
  // worker and surface here through the future.
  SymmetricMatrix spd = make_spd_matrix(pattern, 4);
  std::vector<double> negated = spd.values();
  for (double& v : negated) {
    v = -v;
  }
  SolveRequest bad;
  bad.matrix = SymmetricMatrix(pattern, std::move(negated));
  bad.rhs = {seeded_rhs(pattern.cols(), 1)};
  EXPECT_THROW(pool.solve(std::move(bad)), Error);

  // The pool still serves good requests afterwards.
  SolveRequest good;
  good.matrix = spd;
  good.rhs = {seeded_rhs(pattern.cols(), 2)};
  EXPECT_EQ(pool.solve(std::move(good)).solutions.size(), 1u);
}

TEST(SolverPool, ConcurrentSubmittersShareOnePool) {
  // Multiple tenant threads hammering submit() while workers serve — the
  // TSan job runs this binary, so any race in the queue, cache, counters
  // or stats snapshots fails CI.
  const TrafficOptions traffic{.patterns = 2,
                               .requests = 32,
                               .grid_base = 6,
                               .max_rhs = 2,
                               .seed = 31};
  const ServiceTrace trace = build_service_trace(traffic);

  SolverPoolOptions options;
  options.workers = 3;
  SolverPool pool(options);

  constexpr int kTenants = 4;
  std::atomic<long long> columns{0};
  std::vector<std::thread> tenants;
  tenants.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    tenants.emplace_back([&, t] {
      for (std::size_t r = static_cast<std::size_t>(t);
           r < trace.requests.size(); r += kTenants) {
        SolveOutcome outcome =
            pool.solve(materialize_request(trace, trace.requests[r]));
        columns.fetch_add(static_cast<long long>(outcome.solutions.size()));
      }
    });
  }
  for (std::thread& tenant : tenants) {
    tenant.join();
  }
  EXPECT_EQ(columns.load(), trace.total_rhs());
  EXPECT_EQ(pool.aggregated_stats().rhs_solved,
            static_cast<int>(trace.total_rhs()));
}

}  // namespace
}  // namespace treemem
