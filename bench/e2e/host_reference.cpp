#include "host_reference.hpp"

#include <chrono>
#include <cstdint>
#include <vector>

namespace treemem::e2e {
namespace {

/// The three parts take about 7, 7 and 17 ms on the 2.0 GHz Xeon host
/// uncontended. They mix the kinds of work the workloads do: dense
/// floating-point arithmetic, latency-bound scalar code and memory
/// traffic. Their sum tracked the workloads' slowdowns better than any one
/// part alone.
constexpr long long kMultiplyAddIters = 1LL << 20;
constexpr long long kChainIters = 1LL << 22;
constexpr std::size_t kStreamWords = std::size_t{8} << 20;  // 64 MiB
constexpr int kStreamPasses = 2;

/// Sinks for the results, so no part is optimized away.
volatile double g_double_sink = 0.0;
volatile std::uint64_t g_int_sink = 0;

void multiply_add() {
  using Vec = double __attribute__((vector_size(32)));
  constexpr int kChains = 8;  // independent chains hide the add latency
  Vec acc[kChains];
  for (int c = 0; c < kChains; ++c) {
    acc[c] = Vec{1.0, 1.0, 1.0, 1.0} * (1.0 + 1e-3 * c);
  }
  const Vec mul = {0.9999999, 0.9999998, 0.9999997, 0.9999996};
  const Vec add = {1e-7, 2e-7, 3e-7, 4e-7};
  for (long long i = 0; i < kMultiplyAddIters; ++i) {
    for (int c = 0; c < kChains; ++c) acc[c] = acc[c] * mul + add;
  }
  double sum = 0.0;
  for (int c = 0; c < kChains; ++c) sum += acc[c][0] + acc[c][3];
  g_double_sink = sum;
}

void integer_chain() {
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (long long i = 0; i < kChainIters; ++i) {
    x ^= x >> 29;
    x *= 0xBF58476D1CE4E5B9ULL;
  }
  g_int_sink = x;
}

void stream(const std::vector<double>& buffer) {
  double sum = 0.0;
  for (int pass = 0; pass < kStreamPasses; ++pass) {
    for (const double v : buffer) sum += v;
  }
  g_double_sink = sum;
}

}  // namespace

double time_host_reference() {
  static const std::vector<double> buffer(kStreamWords, 1.0);
  const auto start = std::chrono::steady_clock::now();
  multiply_add();
  integer_chain();
  stream(buffer);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace treemem::e2e
