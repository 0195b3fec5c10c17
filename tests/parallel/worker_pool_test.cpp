// Contract suite for the persistent worker pool (parallel/worker_pool.hpp)
// — the substrate both parallelism levels lease from, so this binary runs
// under TSan in CI.
//
// Pinned properties:
//   * the pool spawns exactly size() threads at construction and never
//     again: threads_spawned stays frozen across any number of leases,
//     loops and dispatches (the zero-births-on-the-hot-path contract CI
//     also gates via bench/check_regression.py);
//   * try_lease never blocks and never over-grants: concurrent
//     lease/run/release hammering from 8 threads stays race-free, every
//     loop index executes exactly once, and a request that finds nobody
//     idle comes back empty (counted as denied) instead of waiting;
//   * nested leasing works: a lease taken from inside an executor task —
//     the production shape, a front leasing trailing-update workers while
//     the tree level owns the crew — runs to completion;
//   * factor_parallel stays bit-identical to the serial engine at
//     w ∈ {1, 2, 8} with elastic crewing on and off (leases only move
//     work between threads, never reassociate it);
//   * an exception in a leased tile fails only that lease's loop (first
//     exception rethrown, every index still executed) and the pool remains
//     fully usable afterwards;
//   * tearing down a pool with a lease outstanding is a clean
//     treemem::Error from shutdown(), and release() then makes shutdown
//     succeed.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/postorder.hpp"
#include "multifrontal/numeric_parallel.hpp"
#include "parallel/executor.hpp"
#include "parallel/worker_pool.hpp"
#include "perf/corpus.hpp"
#include "sparse/generators.hpp"
#include "support/check.hpp"
#include "support/prng.hpp"
#include "test_util.hpp"
#include "tree/generators.hpp"

namespace treemem {
namespace {

using testing::wait_for_idle;

TEST(WorkerPool, SpawnsOnceAndNeverAgain) {
  WorkerPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.stats().threads_spawned, 3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> hits{0};
    pool.try_lease(2).run(16, [&](std::size_t) { hits.fetch_add(1); });
    EXPECT_EQ(hits.load(), 16);
  }
  // The frozen counter IS the no-thread-births contract.
  EXPECT_EQ(pool.stats().threads_spawned, 3);
  EXPECT_GE(pool.stats().leases_granted, 1);
}

TEST(WorkerPool, SizeIsClampedToAtLeastOne) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(WorkerPool, LeaseRunExecutesEveryIndexExactlyOnce) {
  WorkerPool pool(4);
  std::vector<std::atomic<int>> hits(997);
  pool.try_lease(4).run(hits.size(),
                        [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(WorkerPool, EmptyLeaseRunsInlineOnTheCallingThread) {
  WorkerPool pool(2);
  // Hold every worker so the next request must come back empty.
  WorkerLease all = pool.try_lease(2);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(pool.idle_workers(), 0u);

  WorkerLease empty = pool.try_lease(2);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(pool.stats().leases_denied, 1);

  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  empty.run(seen.size(),
            [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const std::thread::id& id : seen) {
    EXPECT_EQ(id, caller);  // denied leases must never block, just inline
  }
}

TEST(WorkerPool, ReleaseReturnsWorkersWithoutRunning) {
  WorkerPool pool(2);
  {
    WorkerLease lease = pool.try_lease(2);
    EXPECT_EQ(lease.size(), 2u);
    EXPECT_EQ(pool.idle_workers(), 0u);
  }  // RAII release
  EXPECT_EQ(pool.idle_workers(), 2u);
  EXPECT_EQ(pool.stats().threads_spawned, 2);
}

TEST(WorkerPool, ConcurrentLeaseReturnRacesAreClean) {
  // The satellite's race scenario: 8 external threads hammer one pool with
  // overlapping lease/run/release cycles. TSan must see no races; the
  // index counts prove no loop lost or duplicated work.
  WorkerPool pool(8);
  constexpr int kThreads = 8;
  constexpr int kRounds = 40;
  constexpr std::size_t kIndices = 64;
  std::vector<std::atomic<long long>> hits(kThreads);
  std::vector<std::thread> drivers;
  drivers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    drivers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        if ((t + round) % 3 == 0) {
          // Mix in lease-and-release-without-running.
          WorkerLease idle_lease = pool.try_lease(2);
          idle_lease.release();
        }
        pool.try_lease(static_cast<unsigned>(1 + (t + round) % 4))
            .run(kIndices, [&](std::size_t) { hits[t].fetch_add(1); });
      }
    });
  }
  for (std::thread& d : drivers) {
    d.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(hits[t].load(), static_cast<long long>(kRounds) * kIndices);
  }
  EXPECT_EQ(pool.stats().threads_spawned, 8);
  EXPECT_TRUE(wait_for_idle(pool));
}

TEST(WorkerPool, NestedLeaseFromInsideAnExecutorTask) {
  // The production shape: the tree-level executor recruits its crew from
  // the pool, and a task body (a front) leases more workers for its tiles
  // from the same pool, mid-run. Must complete and count every tile.
  WorkerPool pool(4);
  const Tree tree = gen::complete_kary(3, 3, 2, 1);  // 13 fronts, arity 3
  const auto p = static_cast<std::size_t>(tree.size());
  ExecutorOptions options;
  options.schedule.workers = 3;
  options.pool = &pool;
  std::atomic<long long> tile_hits{0};
  const ParallelScheduleResult run = execute_task_tree(
      tree, options, std::vector<double>(p, 1.0), [&](NodeId, int) {
        pool.try_lease(2).run(16, [&](std::size_t) {
          tile_hits.fetch_add(1);
        });
      });
  EXPECT_TRUE(run.feasible);
  EXPECT_EQ(tile_hits.load(), static_cast<long long>(p) * 16);
  EXPECT_EQ(pool.stats().threads_spawned, 4);
  EXPECT_TRUE(wait_for_idle(pool));
}

TEST(WorkerPool, ExceptionInLeasedTileFailsOnlyThatLoop) {
  WorkerPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  EXPECT_THROW(
      pool.try_lease(3).run(hits.size(),
                            [&](std::size_t i) {
                              hits[i].fetch_add(1);
                              if (i == 7) {
                                throw Error("tile 7 failed");
                              }
                            }),
      Error);
  // The contract: every index still executed exactly once.
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
  // ...and the failure did not poison the pool: the next lease works.
  std::atomic<int> ok{0};
  pool.try_lease(3).run(32, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 32);
  EXPECT_TRUE(wait_for_idle(pool));
}

TEST(WorkerPool, ShutdownWithLeaseOutstandingIsACleanError) {
  WorkerPool pool(2);
  WorkerLease lease = pool.try_lease(1);
  ASSERT_EQ(lease.size(), 1u);
  EXPECT_THROW(pool.shutdown(), Error);  // teardown under a live lease
  lease.release();
  EXPECT_NO_THROW(pool.shutdown());  // clean once the lease is back
  EXPECT_NO_THROW(pool.shutdown());  // idempotent
}

TEST(WorkerPool, DispatchRunsJobOnceAndSelfReturns) {
  WorkerPool pool(2);
  std::atomic<int> runs{0};
  const unsigned claimed = pool.try_dispatch(2, [&] { runs.fetch_add(1); });
  EXPECT_EQ(claimed, 2u);
  // Dispatched workers self-return; the destructor's drain would also
  // cover this, but pin it explicitly.
  ASSERT_TRUE(wait_for_idle(pool));
  EXPECT_EQ(runs.load(), 2);
  EXPECT_EQ(pool.stats().workers_dispatched, 2);
}

// ---------------------------------------------------------------------------
// Factors bit-identical to serial under every lease policy
// ---------------------------------------------------------------------------

class LeasePolicySweep : public ::testing::TestWithParam<bool> {};

TEST_P(LeasePolicySweep, FactorsBitIdenticalToSerialAcrossWorkerCounts) {
  const bool lease_idle = GetParam();
  Prng prng(4242);
  const SparsePattern raw = symmetrize(gen::random_symmetric(72, 3.0, prng));
  const NumericInstance inst = build_numeric_instance(
      {"pool-test", raw}, OrderingChoice::kMinDegree, 2, 4242);
  const MultifrontalResult serial = multifrontal_cholesky(
      inst.matrix, inst.assembly,
      reverse_traversal(best_postorder(inst.assembly.tree).order),
      KernelConfig{});

  WorkerPool pool(4);
  for (const int workers : {1, 2, 8}) {
    ParallelFactorOptions options;
    options.workers = workers;
    options.lease_idle_workers = lease_idle;
    // The front kernel with the gate forced open, leasing from a private
    // pool: every panel of every front exercises the leased path.
    options.kernel.block_size = 4;
    options.kernel.min_parallel_volume = 0;
    options.kernel.pool = &pool;
    const ParallelFactorResult run =
        factor_parallel(inst.matrix, inst.assembly, options);
    ASSERT_TRUE(run.feasible);
    ASSERT_EQ(run.factor.values.size(), serial.factor.values.size());
    for (std::size_t i = 0; i < serial.factor.values.size(); ++i) {
      ASSERT_EQ(run.factor.values[i], serial.factor.values[i])
          << "factor drift at offset " << i << " with workers=" << workers
          << " lease_idle_workers=" << lease_idle;
    }
  }
  // Everything returned: the pool drained back to fully idle.
  EXPECT_TRUE(wait_for_idle(pool));
  EXPECT_EQ(pool.stats().threads_spawned, 4);
}

INSTANTIATE_TEST_SUITE_P(LeasingOnAndOff, LeasePolicySweep,
                         ::testing::Values(true, false));

}  // namespace
}  // namespace treemem
