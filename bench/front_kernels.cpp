// Extension bench: the dense front-kernel microbenchmark — block size ×
// front size × dispatch, GFLOP/s per cell, into front_kernels.csv.
//
// Synthesizes deterministic dense SPD fronts (the multifrontal engine's
// inner payload, isolated from the tree) and times partial_factor for the
// scalar reference (KernelConfig{.block_size = 1, .workers = 1}) and the
// front kernel across block sizes, once with every trailing update inline
// on one thread and once with every panel's trailing update on leased
// column tiles, at both a full Cholesky (η = m) and the representative
// partial front (η = m/2). Every cell, at every front size, is the median
// of 3 timed runs, and is checked bit-identical to the reference, so a
// kernel regression cannot hide behind a fast wrong answer. The CSV keeps
// each cell's fastest and slowest run too, and the table prints the best
// inline cell's (max − min)/median, so a reading is judged against its
// own noise.
//
// Each cell is also read against a ceiling measured in this binary: one
// core's multiply-then-subtract throughput at the vector width of the
// tile-kernel instantiation the kernel runs (dense/tile_kernel.hpp) — the
// same two rounded operations per update the kernel performs, with no
// memory traffic. A cell's fraction is its GFLOP/s over the ceiling times
// the threads it used (1 inline, the worker count leased).
//
// TREEMEM_SCALE ≥ 2 adds larger fronts (the regime where cache blocking
// and intra-front parallelism pay); the leased cells' worker count honors
// TREEMEM_THREADS via default_thread_count.
#include <algorithm>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dense/front_kernel.hpp"
#include "dense/spd_front.hpp"
#include "dense/tile_kernel.hpp"
#include "support/csv.hpp"
#include "support/parallel_for.hpp"
#include "support/text_table.hpp"
#include "support/timer.hpp"

namespace {

using namespace treemem;

std::string fmt(double v, int precision = 2) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(precision) << v;
  return oss.str();
}

struct Cell {
  const char* dispatch;  ///< "reference" | "inline" | "leased"
  KernelConfig config;
};

/// Iterations of the ceiling loop: 2^24 × 8 vector updates, about 0.05 s
/// with AVX2 on a 2 GHz core.
constexpr long long kCeilingIters = 1LL << 24;

/// Makes `v` opaque to the optimizer: free on x86-64 (it stays in its
/// vector register), through memory elsewhere.
#if defined(__x86_64__)
#define TM_OPAQUE(v) asm volatile("" : "+x"(v))
#else
#define TM_OPAQUE(v) asm volatile("" : "+m"(v))
#endif

/// acc − a·b on 8 independent vector accumulators. The inputs turn opaque
/// each iteration, so no product is hoisted out of the loop; this file is
/// compiled with -ffp-contract=off, so none fuses into an FMA. Returns a
/// sum of the accumulators so the loop is not dead.
template <class Vec>
[[gnu::always_inline]] inline double multiply_subtract_loop(long long iters) {
  Vec c00 = {}, c01 = {}, c02 = {}, c03 = {}, c10 = {}, c11 = {}, c12 = {},
      c13 = {};
  Vec a0 = Vec{} + 1e-9, a1 = Vec{} + 2e-9;
  Vec b0 = Vec{} + 0.5, b1 = Vec{} + 0.25, b2 = Vec{} + 0.125,
      b3 = Vec{} + 0.0625;
  for (long long t = 0; t < iters; ++t) {
    TM_OPAQUE(a0);
    TM_OPAQUE(a1);
    TM_OPAQUE(b0);
    TM_OPAQUE(b1);
    TM_OPAQUE(b2);
    TM_OPAQUE(b3);
    c00 = c00 - a0 * b0;
    c10 = c10 - a1 * b0;
    c01 = c01 - a0 * b1;
    c11 = c11 - a1 * b1;
    c02 = c02 - a0 * b2;
    c12 = c12 - a1 * b2;
    c03 = c03 - a0 * b3;
    c13 = c13 - a1 * b3;
  }
  const Vec sum = c00 + c01 + c02 + c03 + c10 + c11 + c12 + c13;
  return sum[0];
}

using Vec2 = double __attribute__((vector_size(16)));
double multiply_subtract_baseline(long long iters) {
  return multiply_subtract_loop<Vec2>(iters);
}
#if defined(__x86_64__)
using Vec4 = double __attribute__((vector_size(32)));
__attribute__((target("avx2"))) double multiply_subtract_avx2(
    long long iters) {
  return multiply_subtract_loop<Vec4>(iters);
}
using Vec8 = double __attribute__((vector_size(64)));
__attribute__((target("avx512f"))) double multiply_subtract_avx512(
    long long iters) {
  return multiply_subtract_loop<Vec8>(iters);
}
#endif

/// The single-core ceiling for tile-kernel instantiation `isa`, GFLOP/s:
/// best of three timed loops.
double multiply_subtract_ceiling(const std::string& isa) {
  double lanes = 2.0;
  double (*loop)(long long) = &multiply_subtract_baseline;
#if defined(__x86_64__)
  if (isa == "avx512") {
    lanes = 8.0;
    loop = &multiply_subtract_avx512;
  } else if (isa == "avx2") {
    lanes = 4.0;
    loop = &multiply_subtract_avx2;
  }
#endif
  // An instantiation without its own loop would read against SSE2's.
  TM_CHECK(lanes > 2.0 || isa == "baseline",
           "no multiply-subtract ceiling loop for tile kernel " << isa);
  double best = 1e30;
  volatile double sink = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    Timer timer;
    sink = sink + loop(kCeilingIters);
    best = std::min(best, timer.elapsed_s());
  }
  const double flops = static_cast<double>(kCeilingIters) * 8 * lanes * 2;
  return flops / std::max(best, 1e-12) / 1e9;
}

int run() {
  const double scale = bench::scale_from_env();
  std::vector<std::size_t> sizes = {64, 128, 256, 512};
  if (scale >= 2.0) {
    sizes.push_back(768);
  }
  if (scale >= 4.0) {
    sizes.push_back(1024);
  }
  const std::size_t block_sizes[] = {8, 16, 32, 48, 96};

  bench::print_header(
      "Extension — dense front kernel: scalar reference vs cache-blocked "
      "panels, inline and on leased tiles, GFLOP/s");

  const std::string isa = supported_tile_kernels().front().name;
  const double ceiling = multiply_subtract_ceiling(isa);
  std::cout << "tile kernel: " << isa
            << "; single-core multiply-subtract ceiling: " << fmt(ceiling)
            << " GFLOP/s\n";

  CsvWriter csv(bench::output_dir() + "/front_kernels.csv",
                {"dispatch", "isa", "block_size", "workers", "m", "eta",
                 "seconds", "seconds_min", "seconds_max", "gflops",
                 "fraction_of_ceiling"});
  TextTable table({"m", "eta", "scalar GF/s", "best inline GF/s (nb)",
                   "inline/ceiling", "inline spread",
                   "best leased GF/s (nb)",
                   "leased/(w*ceiling)", "inline speedup", "leased/inline"});

  const unsigned workers = default_thread_count();
  std::vector<Cell> cells = {{"reference", {.block_size = 1, .workers = 1}}};
  for (const std::size_t nb : block_sizes) {
    cells.push_back({"inline", {.block_size = nb, .workers = 1}});
    // The gate is forced open: these cells must measure intra-front
    // parallelism (including its overhead on fronts below the production
    // gate), not silently re-measure the inline path.
    cells.push_back({"leased",
                     {.block_size = nb,
                      .workers = workers,
                      .min_parallel_volume = 0}});
  }

  for (const std::size_t m : sizes) {
    for (const std::size_t eta : {m, m / 2}) {
      if (eta == 0) {
        continue;
      }
      const std::vector<double> original = make_dense_spd_front(m, m + eta);
      std::vector<double> reference = original;
      make_front_kernel(cells.front().config)
          ->partial_factor(reference.data(), m, eta, nullptr);

      double scalar_gflops = 1e-12;
      double best_inline = 0.0, best_leased = 0.0;
      double best_inline_spread = 0.0;  ///< (max − min)/median of its runs
      std::size_t best_inline_nb = 0, best_leased_nb = 0;
      for (const Cell& cell : cells) {
        const auto kernel = make_front_kernel(cell.config);
        std::vector<double> work;
        long long flops = 0;
        const bench::TimeSpread time = bench::time_spread_s([&] {
          work = original;
          flops = kernel->partial_factor(work.data(), m, eta, nullptr);
        });
        const double seconds = time.median_s;
        // Every setting preserves the reference's per-entry update order
        // exactly; anything else is a kernel bug.
        TM_CHECK(std::memcmp(work.data(), reference.data(),
                             work.size() * sizeof(double)) == 0,
                 "front kernel diverged from the scalar reference at m="
                     << m << " nb=" << cell.config.block_size
                     << " dispatch=" << cell.dispatch);
        const double gflops =
            static_cast<double>(flops) / std::max(seconds, 1e-12) / 1e9;
        const std::string dispatch = cell.dispatch;
        if (dispatch == "reference") {
          scalar_gflops = gflops;
        } else if (dispatch == "inline" && gflops > best_inline) {
          best_inline = gflops;
          best_inline_spread =
              (time.max_s - time.min_s) / std::max(seconds, 1e-12);
          best_inline_nb = cell.config.block_size;
        } else if (dispatch == "leased" && gflops > best_leased) {
          best_leased = gflops;
          best_leased_nb = cell.config.block_size;
        }
        const unsigned threads = dispatch == "leased" ? workers : 1;
        csv.write_row(
            {dispatch, isa,
             CsvWriter::cell(static_cast<long long>(cell.config.block_size)),
             CsvWriter::cell(static_cast<long long>(threads)),
             CsvWriter::cell(static_cast<long long>(m)),
             CsvWriter::cell(static_cast<long long>(eta)),
             CsvWriter::cell(seconds), CsvWriter::cell(time.min_s),
             CsvWriter::cell(time.max_s), CsvWriter::cell(gflops),
             CsvWriter::cell(gflops / (ceiling * threads))});
      }
      table.add_row({std::to_string(m), std::to_string(eta),
                     fmt(scalar_gflops),
                     fmt(best_inline) + " (" +
                         std::to_string(best_inline_nb) + ")",
                     fmt(best_inline / ceiling),
                     fmt(100.0 * best_inline_spread, 1) + "%",
                     fmt(best_leased) + " (" +
                         std::to_string(best_leased_nb) + ")",
                     fmt(best_leased / (ceiling * workers)),
                     fmt(best_inline / scalar_gflops) + "x",
                     fmt(best_leased / std::max(best_inline, 1e-12)) + "x"});
    }
  }

  std::cout << table.to_string();
  std::cout << "\nreading: cache-blocked panels keep a register tile of the\n"
               "trailing matrix loaded across a whole panel of pivots, so\n"
               "their advantage over the scalar reference grows with the\n"
               "front (the multifrontal root-front regime); leased tiles add\n"
               "intra-front threads on top for the largest fronts\n"
               "(workers = " +
                   std::to_string(workers) +
                   " here). Every cell is checked bit-identical to the\n"
                   "scalar reference.\n";
  std::cout << "raw data: " << csv.path() << "\n";
  return 0;
}

}  // namespace

int main() { return run(); }
