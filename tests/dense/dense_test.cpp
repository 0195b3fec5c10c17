// Correctness suite for the dense front kernel (dense/front_kernel.hpp) —
// the dense math under FrontalEngine.
//
// Pinned properties:
//   * every configuration produces bit-identical results (factors, flop
//     counts) to the scalar reference KernelConfig{.block_size = 1,
//     .workers = 1}, across front sizes, pivot counts and block sizes,
//     including degenerate blocks (width 1, width > η), whether the
//     trailing updates run inline or on leased column tiles;
//   * the leased path is bit-identical whether the pool grants the lease
//     or has nobody idle (the panel then runs inline), and the kernel
//     counts each outcome;
//   * degenerate fronts: η = 0 is a no-op, η = m is a full Cholesky, 1×1
//     fronts factor, non-positive pivots throw a clean Error;
//   * extend_add scatters a child contribution block exactly;
//   * the leased path runs race-clean *inside* factor_parallel — leased
//     tiles nested under the executor's worker threads — with the volume
//     gate forced to zero so TSan sees the threaded path even on small
//     fronts (this binary is in CI's TSan job);
//   * every tile-kernel instantiation this CPU supports (AVX-512, AVX2,
//     baseline) matches, bit for bit and flop for flop, a longhand
//     right-looking Cholesky whose products are rounded before each
//     subtraction, on fronts with planted ±0.0 multipliers. Built with FMA
//     allowed (-march=x86-64-v3, a CI job), this fails if contraction ever
//     reaches the kernel.
//
// "Bit-identical" here means bits: testing::bitwise_equal tells −0.0 from
// +0.0, which EXPECT_EQ on the vectors does not.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/postorder.hpp"
#include "dense/front_kernel.hpp"
#include "dense/spd_front.hpp"
#include "dense/tile_kernel.hpp"
#include "multifrontal/numeric_parallel.hpp"
#include "parallel/worker_pool.hpp"
#include "perf/corpus.hpp"
#include "sparse/generators.hpp"
#include "support/prng.hpp"
#include "test_util.hpp"

namespace treemem {
namespace {

/// The scalar reference: one pivot per panel, trailing updates inline.
constexpr KernelConfig kReference{.block_size = 1, .workers = 1};

/// Block size `nb` on `workers` threads; with more than one worker the
/// volume gate is forced open so every panel takes the leased path.
KernelConfig config_of(std::size_t nb, unsigned workers) {
  KernelConfig config{.block_size = nb, .workers = workers};
  if (workers > 1) {
    config.min_parallel_volume = 0;
  }
  return config;
}

long long factor_with(const KernelConfig& config, std::vector<double>& front,
                      std::size_t m, std::size_t eta) {
  return make_front_kernel(config)->partial_factor(front.data(), m, eta,
                                                   nullptr);
}

TEST(BlockedKernel, BitIdenticalToScalarAcrossSizesAndBlocks) {
  for (const std::size_t m : {1u, 2u, 5u, 16u, 33u, 64u, 96u}) {
    for (const std::size_t eta : {m, m / 2, std::size_t{1}}) {
      if (eta == 0 || eta > m) {
        continue;
      }
      const std::vector<double> original = make_dense_spd_front(m, m + eta);
      std::vector<double> reference = original;
      const long long ref_flops = factor_with(kReference, reference, m, eta);
      for (const std::size_t nb : {1u, 2u, 3u, 7u, 16u, 64u, 128u}) {
        for (const unsigned workers : {1u, 4u}) {
          std::vector<double> front = original;
          const long long flops =
              factor_with(config_of(nb, workers), front, m, eta);
          // Bit-for-bit, not merely close: same per-entry update order,
          // same zero skips.
          EXPECT_TRUE(testing::bitwise_equal(front, reference))
              << "m=" << m << " eta=" << eta << " nb=" << nb
              << " w=" << workers;
          EXPECT_EQ(flops, ref_flops) << "m=" << m << " eta=" << eta
                                      << " nb=" << nb << " w=" << workers;
        }
      }
    }
  }
}

/// make_dense_spd_front with structural zeros planted where skipping a
/// zero multiplier matters. Each column c of the trailing half with
/// (m − 1 − c) % 5 == 0 (the last column included) gets +0.0 left of its
/// diagonal and −0.0 below it. Its multipliers L(c, k) are then ±0.0 for
/// every pivot, so its entries must receive no update and stay −0.0; one
/// zero multiplier applied against a negative L(r, k) turns an entry into
/// +0.0. Column blocks holding such a column run the tile's skipping
/// instantiation, the others (with no random zeros) the branch-free one.
std::vector<double> make_front_with_zero_multipliers(std::size_t m,
                                                     double zero_fraction) {
  std::vector<double> a = make_dense_spd_front(m, m, zero_fraction);
  for (std::size_t c = m / 2; c < m; ++c) {
    if ((m - 1 - c) % 5 != 0) {
      continue;
    }
    for (std::size_t k = 0; k < c; ++k) {
      a[k * m + c] = 0.0;
    }
    for (std::size_t r = c + 1; r < m; ++r) {
      a[c * m + r] = -0.0;
    }
  }
  return a;
}

/// Right-looking partial Cholesky written out longhand, sharing no code
/// with the kernel: per pivot k ascending, square root, scale, then every
/// later column c with a nonzero multiplier L(c, k) gets
/// a(r, c) −= a(r, k)·L(c, k). The volatile store rounds each product to
/// double before its subtraction whatever the compiler's contraction
/// setting, so this reference never fuses into an FMA. Flops counted like
/// the kernel's.
long long longhand_partial_cholesky(std::vector<double>& a, std::size_t m,
                                    std::size_t eta) {
  long long flops = 0;
  for (std::size_t k = 0; k < eta; ++k) {
    const double lkk = std::sqrt(a[k * m + k]);
    a[k * m + k] = lkk;
    ++flops;
    for (std::size_t r = k + 1; r < m; ++r) {
      a[k * m + r] /= lkk;
      ++flops;
    }
    for (std::size_t c = k + 1; c < m; ++c) {
      const double l = a[k * m + c];
      if (l == 0.0) {
        continue;
      }
      flops += 2 * static_cast<long long>(m - c);
      for (std::size_t r = c; r < m; ++r) {
        const volatile double product = a[k * m + r] * l;
        a[c * m + r] = a[c * m + r] - product;
      }
    }
  }
  return flops;
}

TEST(TileKernels, SupportedListMatchesTheCpu) {
  // Fastest first, each instantiation present only where the CPU runs it.
  std::vector<std::string> expected;
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx512f")) {
    expected.push_back("avx512");
  }
  if (__builtin_cpu_supports("avx2")) {
    expected.push_back("avx2");
  }
#endif
  expected.push_back("baseline");
  std::vector<std::string> names;
  for (const TileKernel& kernel : supported_tile_kernels()) {
    names.push_back(kernel.name);
  }
  EXPECT_EQ(names, expected);
}

TEST(TileKernels, EveryInstantiationMatchesTheLonghandOracleBitwise) {
  // m = 37, 100, 149: none a multiple of a tile's rows (24 with AVX-512,
  // 12 with AVX2, 6 baseline) or of its vector width, so every scalar or
  // masked edge runs. m = 64–71 leave, at block size 16 (column blocks
  // starting on a multiple of 4), every tail length 0–7 of an 8-lane
  // vector below a block's full tiles, most of them after a partial
  // 24-row tile. Block sizes 65 and 128 exceed the 64 multipliers a tile
  // packs per pass. The planted fronts' last row is all zeros, which would
  // hide an edge that drops the front's last row; the unplanted front
  // fills it.
  for (const std::size_t m :
       {37u, 64u, 65u, 66u, 67u, 68u, 69u, 70u, 71u, 100u, 149u}) {
    const std::vector<double> fronts[] = {
        make_dense_spd_front(m, m, 0.0),
        make_front_with_zero_multipliers(m, 0.0),
        make_front_with_zero_multipliers(m, 0.2)};
    for (std::size_t f = 0; f < std::size(fronts); ++f) {
      const std::vector<double>& original = fronts[f];
      for (const std::size_t eta : {std::size_t{1}, m / 2, m}) {
        std::vector<double> expected = original;
        const long long expected_flops =
            longhand_partial_cholesky(expected, m, eta);
        // The scalar oracle configuration agrees with the longhand one.
        std::vector<double> oracle = original;
        EXPECT_EQ(factor_with(kReference, oracle, m, eta), expected_flops);
        EXPECT_TRUE(testing::bitwise_equal(oracle, expected))
            << "oracle m=" << m << " eta=" << eta << " front=" << f;
        for (const TileKernel& tile_kernel : supported_tile_kernels()) {
          for (const std::size_t nb : {1u, 3u, 16u, 64u, 65u, 128u}) {
            for (const unsigned workers : {1u, 4u}) {
              const FrontKernel kernel(config_of(nb, workers), tile_kernel);
              std::vector<double> front = original;
              EXPECT_EQ(kernel.partial_factor(front.data(), m, eta, nullptr),
                        expected_flops)
                  << tile_kernel.name << " m=" << m << " eta=" << eta
                  << " nb=" << nb << " w=" << workers;
              EXPECT_TRUE(testing::bitwise_equal(front, expected))
                  << tile_kernel.name << " m=" << m << " eta=" << eta
                  << " nb=" << nb << " w=" << workers << " front=" << f;
            }
          }
        }
      }
    }
  }
}

TEST(ParallelTiledKernel, CurrentImplementationIsBitIdentical) {
  // A private pool controls the lease outcome: first with every worker
  // idle at the start (the first panel's lease is granted), then with
  // every worker held elsewhere (every lease is denied and the panels run
  // inline). Either way the factor is the reference's.
  const std::size_t m = 128;
  const std::vector<double> original = make_dense_spd_front(m, 11);
  std::vector<double> reference = original;
  const long long ref_flops = factor_with(kReference, reference, m, m / 2);
  WorkerPool pool(3);
  for (const bool held : {false, true}) {
    for (const std::size_t nb : {4u, 16u, 48u}) {
      ASSERT_TRUE(testing::wait_for_idle(pool));
      WorkerLease holder = held ? pool.try_lease(3) : WorkerLease{};
      KernelConfig config = config_of(nb, 4);
      config.pool = &pool;
      const auto kernel = make_front_kernel(config);
      std::vector<double> tiled = original;
      // The pool is the one lease record: the kernel's leases are the
      // delta across the factorization (the holder's own grant is before).
      const WorkerPoolStats before = pool.stats();
      const long long flops =
          kernel->partial_factor(tiled.data(), m, m / 2, nullptr);
      const WorkerPoolStats after = pool.stats();
      EXPECT_TRUE(testing::bitwise_equal(tiled, reference))
          << "nb=" << nb << " held=" << held;
      EXPECT_EQ(flops, ref_flops) << "nb=" << nb << " held=" << held;
      const long long granted = after.leases_granted - before.leases_granted;
      const long long denied = after.leases_denied - before.leases_denied;
      if (held) {
        EXPECT_EQ(granted, 0) << "nb=" << nb;
        EXPECT_GT(denied, 0) << "nb=" << nb;
      } else {
        EXPECT_GT(granted, 0) << "nb=" << nb;
      }
    }
  }
}

TEST(FrontKernels, DegenerateFronts) {
  for (const KernelConfig& config :
       {kReference, config_of(4, 1), config_of(4, 2)}) {
    const auto kernel = make_front_kernel(config);

    // eta = 0: no pivots — the front must come back untouched.
    const std::vector<double> original = make_dense_spd_front(12, 5);
    std::vector<double> front = original;
    EXPECT_EQ(kernel->partial_factor(front.data(), 12, 0, nullptr), 0);
    EXPECT_TRUE(testing::bitwise_equal(front, original));

    // eta = m: a full dense Cholesky; L·Lᵀ must reconstruct the front.
    std::vector<double> full = original;
    kernel->partial_factor(full.data(), 12, 12, nullptr);
    for (std::size_t c = 0; c < 12; ++c) {
      for (std::size_t r = c; r < 12; ++r) {
        double sum = 0.0;
        for (std::size_t k = 0; k <= c; ++k) {
          sum += full[k * 12 + r] * full[k * 12 + c];
        }
        EXPECT_NEAR(sum, original[c * 12 + r], 1e-10)
            << "nb=" << config.block_size << " w=" << config.workers << " ("
            << r << "," << c << ")";
      }
    }

    // 1×1 front: sqrt and nothing else.
    std::vector<double> tiny = {9.0};
    EXPECT_EQ(kernel->partial_factor(tiny.data(), 1, 1, nullptr), 1);
    EXPECT_EQ(tiny[0], 3.0);

    // Empty front: a no-op, not a crash.
    EXPECT_EQ(kernel->partial_factor(tiny.data(), 0, 0, nullptr), 0);
  }
}

TEST(FrontKernels, NonPositivePivotThrowsFromEveryKernel) {
  for (const KernelConfig& config :
       {kReference, config_of(4, 1), config_of(4, 2)}) {
    const auto kernel = make_front_kernel(config);
    // Identity with a poisoned pivot *beyond* the first panel, so blocked
    // configurations reach it mid-run.
    std::vector<double> front(16 * 16, 0.0);
    for (std::size_t k = 0; k < 16; ++k) {
      front[k * 16 + k] = 1.0;
    }
    front[9 * 16 + 9] = -2.0;
    EXPECT_THROW(kernel->partial_factor(front.data(), 16, 16, nullptr),
                 Error)
        << "nb=" << config.block_size << " w=" << config.workers;
  }
}

TEST(FrontKernels, ExtendAddScattersChildBlockExactly) {
  const auto kernel = make_front_kernel(kReference);
  // Front over global rows {2, 5, 7, 8}; child CB over rows {5, 8}.
  std::vector<double> front(4 * 4, 1.0);
  const std::vector<double> expected_base = front;
  const Index front_rows[] = {2, 5, 7, 8};
  std::vector<Index> front_pos(9, -1);
  for (std::size_t k = 0; k < 4; ++k) {
    front_pos[static_cast<std::size_t>(front_rows[k])] =
        static_cast<Index>(k);
  }
  const Index cb_rows[] = {5, 8};
  const std::vector<double> cb_values = {10.0, 20.0,   // column 0 (rows 5,8)
                                         0.0, 40.0};   // column 1 (row 8)
  kernel->extend_add(front.data(), 4, front_pos.data(), cb_rows, 2,
                     cb_values.data());
  std::vector<double> expected = expected_base;
  expected[1 * 4 + 1] += 10.0;  // (5,5)
  expected[1 * 4 + 3] += 20.0;  // (8,5)
  expected[3 * 4 + 3] += 40.0;  // (8,8)
  EXPECT_TRUE(testing::bitwise_equal(front, expected));
}

/// The TSan flagship: leased trailing-update tiles nested inside
/// factor_parallel's executor workers — two layers of real threads sharing
/// one front buffer layer apart. The volume gate is forced to zero so
/// every panel of every front takes the leased path.
TEST(KernelInEngine, ParallelTiledInsideFactorParallelIsRaceClean) {
  const NumericInstance inst = build_numeric_instance(
      {"dense-tsan", symmetrize(gen::grid2d(9, 9))},
      OrderingChoice::kMinDegree, /*relax=*/2, /*seed=*/29);
  const MultifrontalResult reference = multifrontal_cholesky(
      inst.matrix, inst.assembly,
      reverse_traversal(best_postorder(inst.assembly.tree).order),
      kReference);

  ParallelFactorOptions options;
  options.workers = 4;
  options.kernel = config_of(4, 2);
  const ParallelFactorResult run =
      factor_parallel(inst.matrix, inst.assembly, options);
  ASSERT_TRUE(run.feasible);
  EXPECT_LE(run.measured_peak_entries, run.modeled_peak_entries);
  EXPECT_EQ(run.flops, reference.flops);
  EXPECT_TRUE(
      testing::bitwise_equal(run.factor.values, reference.factor.values));
}

TEST(KernelInEngine, BlockedKernelKeepsSerialDriverBitExact) {
  Prng prng(17);
  const NumericInstance inst = build_numeric_instance(
      {"dense-serial", symmetrize(gen::random_symmetric(64, 3.0, prng))},
      OrderingChoice::kNestedDissection, /*relax=*/1, /*seed=*/31);
  const Traversal order =
      reverse_traversal(best_postorder(inst.assembly.tree).order);
  const MultifrontalResult scalar =
      multifrontal_cholesky(inst.matrix, inst.assembly, order, kReference);
  for (const std::size_t nb : {2u, 16u, 96u}) {
    const MultifrontalResult blocked = multifrontal_cholesky(
        inst.matrix, inst.assembly, order, config_of(nb, 1));
    EXPECT_TRUE(
        testing::bitwise_equal(blocked.factor.values, scalar.factor.values))
        << "nb=" << nb;
    EXPECT_EQ(blocked.flops, scalar.flops) << "nb=" << nb;
    EXPECT_EQ(blocked.peak_live_entries, scalar.peak_live_entries)
        << "nb=" << nb;
  }
}

}  // namespace
}  // namespace treemem
