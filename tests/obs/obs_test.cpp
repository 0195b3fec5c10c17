// The observability suite (src/obs): tracing ring buffers, the metrics
// registry, and the SolverPool exposition contract.
//
// Pinned properties:
//   * concurrent emits are bit-exact: 8 threads × N events land as
//     exactly N retained events per registered thread, zero dropped —
//     the per-thread single-writer rings never lose or duplicate under
//     contention (the TSan job runs this binary);
//   * overflow drops oldest: a capacity-16 buffer fed 100 events retains
//     the LAST 16 in order and counts the other 84 as dropped — a
//     truncated trace is always labelled as such;
//   * the disabled path is inert: emits on a never-started recorder
//     register no buffer, retain nothing, count nothing — the permanent
//     instrumentation on hot paths is free when tracing is off;
//   * a TraceSpan armed while disabled never emits an orphan 'E';
//   * the Chrome export is real JSON (python3 -m json.tool parses it)
//     and every thread's 'B'/'E' events balance like a stack;
//   * Histogram quantiles follow the documented interpolation exactly
//     (golden values), and exponential_bounds builds the 1-2-5 ladder;
//   * the registry renders exactly its registered exporters, in
//     registration order, and a removed exporter leaves the dump; a
//     histogram, counters and a labelled gauge rendered through the
//     format_* helpers in an exporter come out in exposition form;
//   * SolverPool's exporter emits the EXACT metric set — the
//     `--metrics-out` exposition is a scrape contract, so a renamed or
//     dropped series must fail here, not in a dashboard.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "solver/solver_pool.hpp"
#include "sparse/generators.hpp"
#include "sparse/matrix.hpp"
#include "test_util.hpp"

namespace treemem {
namespace {

using obs::Histogram;
using obs::MetricsRegistry;
using obs::TraceEvent;
using obs::TraceRecorder;
using obs::TraceSpan;

TEST(Trace, EightThreadsRetainBitExactCounts) {
  TraceRecorder recorder;  // private instance: isolated from the process one
  recorder.start();
  constexpr int kThreads = 8;
  constexpr long long kEvents = 500;  // well under the default capacity
  std::vector<std::thread> crew;
  crew.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    crew.emplace_back([&recorder, t] {
      for (long long i = 0; i < kEvents; ++i) {
        recorder.instant("event", "test", TraceRecorder::kNoLane, "seq",
                         t * kEvents + i);
      }
    });
  }
  for (std::thread& thread : crew) {
    thread.join();
  }
  recorder.stop();

  const TraceRecorder::Stats stats = recorder.stats();
  EXPECT_EQ(stats.threads, static_cast<std::size_t>(kThreads));
  EXPECT_EQ(stats.retained, static_cast<std::uint64_t>(kThreads * kEvents));
  EXPECT_EQ(stats.dropped, 0u);

  // Exactly kEvents per tid, in emission order (vals strictly increasing).
  std::map<int, std::vector<long long>> per_tid;
  for (const TraceEvent& event : recorder.snapshot()) {
    per_tid[event.tid].push_back(event.val0);
  }
  ASSERT_EQ(per_tid.size(), static_cast<std::size_t>(kThreads));
  for (const auto& [tid, vals] : per_tid) {
    ASSERT_EQ(vals.size(), static_cast<std::size_t>(kEvents))
        << "tid " << tid;
    for (std::size_t i = 1; i < vals.size(); ++i) {
      ASSERT_LT(vals[i - 1], vals[i]) << "tid " << tid;
    }
  }
}

TEST(Trace, OverflowDropsOldestAndCountsDropped) {
  obs::TraceRecorderOptions options;
  options.buffer_capacity = 16;
  TraceRecorder recorder(options);
  recorder.start();
  for (long long i = 0; i < 100; ++i) {
    recorder.instant("event", "test", TraceRecorder::kNoLane, "seq", i);
  }
  recorder.stop();

  const TraceRecorder::Stats stats = recorder.stats();
  EXPECT_EQ(stats.threads, 1u);
  EXPECT_EQ(stats.retained, 16u);
  EXPECT_EQ(stats.dropped, 84u);

  const std::vector<TraceEvent> events = recorder.snapshot();
  ASSERT_EQ(events.size(), 16u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].val0, 84 + static_cast<long long>(i));
  }
}

TEST(Trace, DisabledRecorderIsInert) {
  TraceRecorder recorder;  // never started
  recorder.instant("event", "test");
  recorder.begin("span", "test");
  recorder.end("span", "test");
  recorder.counter("track", "series", 1);
  const TraceRecorder::Stats stats = recorder.stats();
  EXPECT_EQ(stats.threads, 0u);  // the disabled path never registers
  EXPECT_EQ(stats.retained, 0u);
  EXPECT_EQ(stats.dropped, 0u);
}

TEST(Trace, SpanArmedWhileDisabledEmitsNoOrphanEnd) {
  TraceRecorder recorder;
  {
    TraceSpan span(recorder, "span", "test");  // disabled: no begin
    recorder.start();
  }  // must not emit the lone 'E'
  recorder.stop();
  EXPECT_EQ(recorder.stats().retained, 0u);
}

TEST(Trace, ChromeJsonParsesAndBeginEndBalancePerThread) {
  TraceRecorder recorder;
  recorder.start();
  constexpr int kThreads = 4;
  std::vector<std::thread> crew;
  crew.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    crew.emplace_back([&recorder, t] {
      for (int i = 0; i < 20; ++i) {
        TraceSpan outer(recorder, "outer", "test", t, "i", i);
        recorder.instant("mark", "test", t);
        TraceSpan inner(recorder, "inner", "test", t, "i", i, "half", i / 2);
      }
      recorder.counter("load", "value", t);
    });
  }
  for (std::thread& thread : crew) {
    thread.join();
  }
  recorder.stop();

  // Stack discipline per emitting thread: depth never goes negative and
  // ends at zero (TraceSpan guarantees this by construction; the export
  // relies on it to render nested slices).
  std::map<int, int> depth;
  for (const TraceEvent& event : recorder.snapshot()) {
    if (event.phase == 'B') {
      ++depth[event.tid];
    } else if (event.phase == 'E') {
      ASSERT_GT(depth[event.tid], 0);
      --depth[event.tid];
    }
  }
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "unbalanced spans on tid " << tid;
  }

  const std::string path =
      ::testing::TempDir() + "/treemem_obs_trace_test.json";
  recorder.write_chrome_json(path);
  if (std::system("python3 --version > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 unavailable: JSON checked structurally only";
  }
  const std::string check =
      "python3 -m json.tool '" + path + "' > /dev/null 2>&1";
  EXPECT_EQ(std::system(check.c_str()), 0)
      << "exported trace is not valid JSON: " << path;
}

TEST(Histogram, QuantileGoldens) {
  Histogram h({1.0, 2.0, 5.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(1.5);
  h.observe(3.0);
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum(), 6.5);
  EXPECT_EQ(h.bucket_counts(), (std::vector<long long>{1, 2, 1, 0}));

  // target = q * total walks the cumulative counts and interpolates
  // linearly inside the selected bucket (first bucket's lower edge is 0).
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 1.0);   // exactly the first bucket
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.5);    // halfway through (1, 2]
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 5.0);    // top of the last counted bucket

  h.reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty = 0

  // An observation above every finite bound reports the largest bound —
  // the histogram cannot resolve further.
  Histogram overflow({1.0});
  overflow.observe(100.0);
  EXPECT_DOUBLE_EQ(overflow.quantile(1.0), 1.0);
}

TEST(Histogram, ExponentialBoundsBuildTheLadder) {
  const std::vector<double> decade = Histogram::exponential_bounds(1.0, 10.0);
  EXPECT_EQ(decade, (std::vector<double>{1.0, 2.0, 5.0, 10.0}));

  const std::vector<double> latency =
      Histogram::exponential_bounds(1e-6, 10.0);
  ASSERT_EQ(latency.size(), 22u);  // 7 decades × 3 + the final 10
  EXPECT_DOUBLE_EQ(latency.front(), 1e-6);
  EXPECT_DOUBLE_EQ(latency.back(), 10.0);
  for (std::size_t i = 1; i < latency.size(); ++i) {
    EXPECT_LT(latency[i - 1], latency[i]);
  }
}

TEST(Metrics, RegistryDumpRoundTrip) {
  MetricsRegistry registry;  // private instance, not the process one
  EXPECT_EQ(registry.dump(), "");

  // A subsystem-owned histogram and tallies, rendered at dump time — the
  // way SolverPool and WorkerPool export theirs.
  Histogram sizes({1.0, 10.0});
  sizes.observe(0.5);
  sizes.observe(4.0);
  long long requests = 3;
  const std::uint64_t stats_token = registry.add_exporter([&] {
    return obs::format_histogram("test_sizes", "", sizes) +
           obs::format_counter("test_requests_total", "", requests) +
           obs::format_counter("test_busy_seconds_total", "", 1.25) +
           obs::format_gauge("test_load", "shard=\"a\"", 2.5);
  });
  const std::uint64_t custom_token =
      registry.add_exporter([] { return std::string("custom_line 7\n"); });
  EXPECT_NE(stats_token, custom_token);

  // Exporters render in registration order, and read their stats at dump
  // time, not at registration.
  requests = 4;
  EXPECT_EQ(registry.dump(),
            "# TYPE test_sizes histogram\n"
            "test_sizes_bucket{le=\"1\"} 1\n"
            "test_sizes_bucket{le=\"10\"} 2\n"
            "test_sizes_bucket{le=\"+Inf\"} 2\n"
            "test_sizes_sum 4.5\n"
            "test_sizes_count 2\n"
            "# TYPE test_requests_total counter\n"
            "test_requests_total 4\n"
            "# TYPE test_busy_seconds_total counter\n"
            "test_busy_seconds_total 1.25\n"
            "# TYPE test_load gauge\n"
            "test_load{shard=\"a\"} 2.5\n"
            "custom_line 7\n");

  // Labels go inside every histogram line, before `le`.
  EXPECT_EQ(obs::format_histogram("test_sizes", "shard=\"b\"", sizes),
            "# TYPE test_sizes histogram\n"
            "test_sizes_bucket{shard=\"b\",le=\"1\"} 1\n"
            "test_sizes_bucket{shard=\"b\",le=\"10\"} 2\n"
            "test_sizes_bucket{shard=\"b\",le=\"+Inf\"} 2\n"
            "test_sizes_sum{shard=\"b\"} 4.5\n"
            "test_sizes_count{shard=\"b\"} 2\n");

  // Removing one exporter leaves the other; removing a token twice (or
  // one never issued) is a no-op.
  registry.remove_exporter(stats_token);
  EXPECT_EQ(registry.dump(), "custom_line 7\n");
  registry.remove_exporter(stats_token);
  registry.remove_exporter(custom_token + 100);
  EXPECT_EQ(registry.dump(), "custom_line 7\n");
  registry.remove_exporter(custom_token);
  EXPECT_EQ(registry.dump(), "");
}

TEST(Metrics, SolverPoolExportsExactMetricSet) {
  // The scrape contract behind `treemem_cli serve --metrics-out`: the
  // pool's exporter must emit exactly these series, in this order. A
  // rename, a drop, or a new unlisted series is a breaking change to
  // every dashboard scraping the service — fail here instead.
  const std::string before = obs::dump_metrics();

  SolverPoolOptions options;
  options.workers = 2;
  // The pool demotes every job to one serial worker whose kernel never
  // leases, so the job stays off the process WorkerPool — whose
  // lazily-registered exporter would otherwise blur the diff below.
  SolverPool pool(options);

  SolveRequest request;
  request.matrix = make_spd_matrix(gen::grid2d(6, 6), 7);
  request.rhs.assign(1, std::vector<double>(36, 1.0));
  const SolveOutcome outcome = pool.solve(std::move(request));
  EXPECT_EQ(outcome.solutions.size(), 1u);

  const std::string after = obs::dump_metrics();
  ASSERT_EQ(after.substr(0, before.size()), before)
      << "pool registration must only append to the exposition";
  const std::string added = after.substr(before.size());

  std::vector<std::string> types;
  std::istringstream lines(added);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      types.push_back(line.substr(7));
    }
  }
  const std::vector<std::string> expected = {
      "treemem_solve_latency_seconds histogram",
      "treemem_symbolic_cache_hits_total counter",
      "treemem_symbolic_cache_misses_total counter",
      "treemem_symbolic_cache_evictions_total counter",
      "treemem_symbolic_cache_entries gauge",
      "treemem_symbolic_cache_resident_bytes gauge",
      "treemem_solver_analyze_seconds gauge",
      "treemem_solver_plan_seconds gauge",
      "treemem_solver_factorize_seconds gauge",
      "treemem_solver_solve_seconds counter",
      "treemem_solver_factorizations counter",
      "treemem_solver_rhs_solved counter",
      "treemem_solver_flops gauge",
      "treemem_solver_measured_peak_entries gauge",
      "treemem_solver_modeled_peak_entries gauge",
      "treemem_solver_planned_peak_entries gauge",
      "treemem_solver_in_core_optimum gauge",
      "treemem_solver_best_postorder_peak gauge",
      "treemem_solver_planned_io_volume gauge",
  };
  EXPECT_EQ(types, expected);

  // The one solve is visible in the exposition.
  EXPECT_NE(added.find("treemem_solve_latency_seconds_count 1\n"),
            std::string::npos);
  EXPECT_NE(added.find("treemem_symbolic_cache_misses_total 1\n"),
            std::string::npos);
  EXPECT_NE(added.find("treemem_solver_factorizations 1\n"),
            std::string::npos);
}

TEST(Metrics, SolverPoolExporterUnregistersOnDestruction) {
  const std::string before = obs::dump_metrics();
  {
    SolverPoolOptions options;
    options.workers = 1;
    SolverPool pool(options);
    EXPECT_NE(obs::dump_metrics().find("treemem_solve_latency_seconds"),
              std::string::npos);
  }
  EXPECT_EQ(obs::dump_metrics(), before);
}

}  // namespace
}  // namespace treemem
