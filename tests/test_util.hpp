// Shared helpers for the treemem test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <condition_variable>
#include <cstdint>
#include <iomanip>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "parallel/worker_pool.hpp"
#include "sparse/pattern.hpp"
#include "support/prng.hpp"
#include "symbolic/symbolic.hpp"
#include "tree/generators.hpp"
#include "tree/tree.hpp"

// Sanitizer detection, shared so capacity-limited tests (deep recursion
// blows TSan's shadow stack; ASan's redzones inflate every frame) scale or
// skip consistently. GCC defines __SANITIZE_*__, Clang goes through
// __has_feature.
#if defined(__SANITIZE_THREAD__)
#define TREEMEM_TSAN 1
#endif
#if defined(__SANITIZE_ADDRESS__)
#define TREEMEM_ASAN 1
#endif
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TREEMEM_TSAN 1
#endif
#if __has_feature(address_sanitizer)
#define TREEMEM_ASAN 1
#endif
#endif

namespace treemem::testing {

/// A deterministic zoo of small hand-built trees exercising assorted shapes
/// and weight regimes (including zero files and negative execution files
/// from variant-model transforms).
inline Tree tiny_chain() { return gen::chain(5, 3, 2); }

inline Tree tiny_star() { return gen::star(4, 5, 1); }

/// The running example used across several tests: root 0 (f=0,n=1) with
/// children 1 (f=4,n=0) and 2 (f=6,n=2); node 3 (f=2,n=0) under 1 and
/// node 4 (f=3,n=1) under 2.
inline Tree tiny_mixed() {
  TreeBuilder b;
  const NodeId r = b.add_root(0, 1);
  const NodeId a = b.add_child(r, 4, 0);
  const NodeId c = b.add_child(r, 6, 2);
  b.add_child(a, 2, 0);
  b.add_child(c, 3, 1);
  return std::move(b).build();
}

/// Random tree with the given seed; sizes and shape vary with the seed so
/// parameterized sweeps cover many regimes.
inline Tree seeded_random_tree(std::uint64_t seed, NodeId size) {
  Prng prng(seed);
  gen::RandomTreeOptions options;
  options.chain_bias = 0.15 + 0.7 * prng.uniform_real();
  options.min_file = 0;
  options.max_file = 1 + static_cast<Weight>(prng.uniform_int(1, 40));
  options.min_work = 0;
  options.max_work = static_cast<Weight>(prng.uniform_int(0, 15));
  return gen::random_tree(size, options, prng);
}

/// The shared small-tree corpus for exhaustive cross-validation against the
/// brute-force solvers: `count` seeded random trees of 1..max_size nodes,
/// cycling through sizes and shape/weight regimes (including zero files and
/// zero works). Deterministic: same arguments, same trees, on every
/// platform.
inline std::vector<Tree> small_tree_corpus(int count, NodeId max_size,
                                           std::uint64_t salt = 0) {
  std::vector<Tree> corpus;
  corpus.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const NodeId size = 1 + static_cast<NodeId>(i) % max_size;
    corpus.push_back(
        seeded_random_tree(salt + 0x9e3779b9ULL * static_cast<std::uint64_t>(i),
                           size));
  }
  return corpus;
}

/// Bit-for-bit equality of two double arrays, for the bit-identity
/// contracts. EXPECT_EQ on std::vector<double> compares with ==, which
/// holds for −0.0 == +0.0, so it cannot see a factor whose zeros changed
/// sign. Use as EXPECT_TRUE(testing::bitwise_equal(actual, expected)).
inline ::testing::AssertionResult bitwise_equal(
    std::span<const double> actual, std::span<const double> expected) {
  if (actual.size() != expected.size()) {
    return ::testing::AssertionFailure()
           << "sizes differ: " << actual.size() << " vs " << expected.size();
  }
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(actual[i]) !=
        std::bit_cast<std::uint64_t>(expected[i])) {
      return ::testing::AssertionFailure()
             << "first difference at index " << i << ": "
             << std::setprecision(17) << actual[i] << " vs " << expected[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// Bounded wait until every worker of `pool` has parked again: run()
/// returns once every index executed, but the borrowed workers re-park
/// asynchronously after that, so an immediate idle_workers() read races
/// them. False after ~a million yields (a worker that never returns).
inline bool wait_for_idle(const WorkerPool& pool) {
  for (int spin = 0; spin < 1000000; ++spin) {
    if (pool.idle_workers() == pool.size()) {
      return true;
    }
    std::this_thread::yield();
  }
  return false;
}

/// Occupies up to `k` idle workers of `pool` with try_dispatch jobs that
/// wait until this object is destroyed, so the code under test finds only
/// the rest idle. The destructor releases the jobs and waits for the pool
/// to park again, so destroy it when nothing else runs on the pool.
class HoldWorkers {
 public:
  HoldWorkers(WorkerPool& pool, unsigned k) : pool_(pool) {
    held_ = pool_.try_dispatch(k, [this] {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return released_; });
      if (--running_ == 0) {
        cv_.notify_all();
      }
    });
    std::lock_guard<std::mutex> lock(mutex_);
    running_ += held_;
  }

  ~HoldWorkers() {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      released_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return running_ == 0; });
    }
    EXPECT_TRUE(wait_for_idle(pool_));
  }

  HoldWorkers(const HoldWorkers&) = delete;
  HoldWorkers& operator=(const HoldWorkers&) = delete;

  /// Workers actually held (fewer than k when fewer were idle).
  unsigned count() const { return held_; }

 private:
  WorkerPool& pool_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool released_ = false;
  unsigned running_ = 0;  ///< held jobs that have not returned yet
  unsigned held_ = 0;
};

/// Oracle for the pattern of L of a symmetric pattern with a full diagonal,
/// independent of the library's row-subtree walk (column_counts): column
/// merging, L(:,j) = the lower part of A(:,j) ∪ the union over etree
/// children c of L(:,c) \ {c}. Columns ascending, the diagonal first.
/// Every etree child precedes its parent, so one ascending pass suffices.
inline SparsePattern column_merge_factor(const SparsePattern& a) {
  const Index n = a.cols();
  const std::vector<Index> parent = elimination_tree(a);
  std::vector<std::vector<Index>> cols(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j) {
    auto& col = cols[static_cast<std::size_t>(j)];
    for (const Index i : a.column(j)) {
      if (i >= j) {
        col.push_back(i);
      }
    }
    std::sort(col.begin(), col.end());
    col.erase(std::unique(col.begin(), col.end()), col.end());
    if (const Index p = parent[static_cast<std::size_t>(j)]; p != -1) {
      auto& up = cols[static_cast<std::size_t>(p)];
      up.insert(up.end(), col.begin() + 1, col.end());
    }
  }
  std::vector<std::int64_t> col_ptr{0};
  std::vector<Index> row_idx;
  for (const auto& col : cols) {
    row_idx.insert(row_idx.end(), col.begin(), col.end());
    col_ptr.push_back(static_cast<std::int64_t>(row_idx.size()));
  }
  return SparsePattern(n, n, std::move(col_ptr), std::move(row_idx));
}

}  // namespace treemem::testing
