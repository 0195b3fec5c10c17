// Shared plumbing for the per-figure benchmark binaries.
//
// Every binary reads two environment knobs:
//   TREEMEM_SCALE    — corpus scale factor (default 1.0; 4.0 approaches the
//                      paper's matrix sizes at proportional runtime)
//   TREEMEM_OUT      — output directory for CSVs (default ./bench_out)
// and prints the paper's table/figure to stdout while writing the raw data
// to CSV for external plotting.
#pragma once

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "perf/corpus.hpp"
#include "support/env.hpp"
#include "support/timer.hpp"

namespace treemem::bench {

inline double scale_from_env() {
  // Default: assembly trees up to ~10^4 nodes (the paper's UF filter gives
  // 2e4..2e5 matrix rows; TREEMEM_SCALE=16 reaches that regime). Strictly
  // parsed through support/env.hpp — a garbage scale fails the bench run
  // loudly instead of silently charting the default corpus.
  return env_double("TREEMEM_SCALE", 1e-3, 1e3).value_or(4.0);
}

inline std::string output_dir() {
  const std::string dir = env_string("TREEMEM_OUT").value_or("bench_out");
  std::filesystem::create_directories(dir);
  return dir;
}

inline CorpusOptions corpus_options() {
  CorpusOptions options;
  options.scale = scale_from_env();
  return options;
}

/// Fastest, median and slowest wall-clock seconds of a set of runs.
struct TimeSpread {
  double min_s = 0.0;
  double median_s = 0.0;
  double max_s = 0.0;
};

/// The spread of `reps` timed runs of `fn`.
template <typename Fn>
TimeSpread time_spread_s(Fn&& fn, int reps = 3) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    Timer timer;
    fn();
    times.push_back(timer.elapsed_s());
  }
  std::sort(times.begin(), times.end());
  return {times.front(), times[times.size() / 2], times.back()};
}

/// Median wall-clock seconds of `reps` runs of `fn`.
template <typename Fn>
double median_time_s(Fn&& fn, int reps = 3) {
  return time_spread_s(fn, reps).median_s;
}

inline void print_header(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

}  // namespace treemem::bench
