// Tests for the support layer: PRNG determinism, CSV escaping, tables,
// plots, big-stack runner and the parallel loop.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "support/ascii_plot.hpp"
#include "support/check.hpp"
#include "support/csv.hpp"
#include "support/env.hpp"
#include "support/parallel_for.hpp"
#include "support/prng.hpp"
#include "support/stack_runner.hpp"
#include "support/text_table.hpp"
#include "test_util.hpp"

namespace treemem {
namespace {

TEST(Prng, DeterministicAcrossInstances) {
  Prng a(123);
  Prng b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Prng, GoldenValues) {
  // Pin the exact stream: reproducibility of every experiment depends on it.
  Prng prng(42);
  EXPECT_EQ(prng.next_u64(), 1546998764402558742ULL);
  EXPECT_EQ(prng.next_u64(), 6990951692964543102ULL);
}

TEST(Prng, UniformIntBoundsAndCoverage) {
  Prng prng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = prng.uniform_int(-3, 4);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 4);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 8u);  // all values hit
  EXPECT_EQ(prng.uniform_int(5, 5), 5);
  EXPECT_THROW(prng.uniform_int(2, 1), Error);
}

TEST(Prng, UniformRealInUnitInterval) {
  Prng prng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = prng.uniform_real();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Prng, ShuffleIsPermutation) {
  Prng prng(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  prng.shuffle(v);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), sorted.begin()));
}

TEST(Csv, WritesEscapedRows) {
  const std::string path = ::testing::TempDir() + "/treemem_csv_test.csv";
  {
    CsvWriter csv(path, {"name", "value"});
    csv.write_row({"plain", "1"});
    csv.write_row({"with,comma", "2"});
    csv.write_row({"with\"quote", "3"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "name,value");
  std::getline(in, line);
  EXPECT_EQ(line, "plain,1");
  std::getline(in, line);
  EXPECT_EQ(line, "\"with,comma\",2");
  std::getline(in, line);
  EXPECT_EQ(line, "\"with\"\"quote\",3");
  std::remove(path.c_str());
}

TEST(Csv, RejectsArityMismatch) {
  const std::string path = ::testing::TempDir() + "/treemem_csv_arity.csv";
  CsvWriter csv(path, {"a", "b"});
  EXPECT_THROW(csv.write_row({"1"}), Error);
  std::remove(path.c_str());
}

TEST(TextTable, AlignsColumns) {
  TextTable table({"algo", "peak"});
  table.add_row({"PostOrder", "123"});
  table.add_row({"Liu", "45"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("| algo      | peak |"), std::string::npos);
  EXPECT_NE(out.find("| Liu       | 45   |"), std::string::npos);
}

TEST(AsciiPlot, RendersSeriesAndLegend) {
  PlotSeries s1{"up", {0, 1, 2}, {0, 1, 2}};
  PlotSeries s2{"down", {0, 1, 2}, {2, 1, 0}};
  PlotOptions options;
  const std::string out = render_ascii_plot({s1, s2}, options);
  EXPECT_NE(out.find("[*] up"), std::string::npos);
  EXPECT_NE(out.find("[o] down"), std::string::npos);
  EXPECT_NE(out.find('*'), std::string::npos);
}

TEST(AsciiPlot, HandlesEmptyInput) {
  EXPECT_EQ(render_ascii_plot({}, PlotOptions{}), "(empty plot)\n");
}

TEST(StackRunner, RunsDeepRecursion) {
  // ThreadSanitizer keeps a bounded shadow call stack; a million-deep
  // recursion overflows it and crashes the runtime itself, so this test
  // must not run under TSan (a TSan capacity limit, not a bug in
  // run_with_stack).
#ifdef TREEMEM_TSAN
  GTEST_SKIP() << "TSan's shadow stack cannot track 1e6-deep recursion";
#endif
  // 1e6-deep recursion needs far more than the default 8 MiB stack.
  std::function<std::size_t(std::size_t)> burn = [&](std::size_t depth) -> std::size_t {
    volatile char pad[64] = {0};
    (void)pad;
    return depth == 0 ? 0 : 1 + burn(depth - 1);
  };
  std::size_t result = 0;
  run_with_stack(kBigStackBytes, [&]() { result = burn(1000000); });
  EXPECT_EQ(result, 1000000u);
}

TEST(StackRunner, PropagatesExceptions) {
  EXPECT_THROW(
      run_with_stack(kBigStackBytes, []() { throw Error("boom"); }), Error);
}

TEST(ParallelFor, VisitsEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(parallel_for(64,
                            [&](std::size_t i) {
                              if (i % 7 == 3) {
                                throw Error("boom");
                              }
                            }),
               Error);
}

TEST(ParallelFor, WorksSingleThreaded) {
  int sum = 0;
  parallel_for(10, [&](std::size_t i) { sum += static_cast<int>(i); }, 1);
  EXPECT_EQ(sum, 45);
}

TEST(ParallelFor, InlinePathRunsOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  parallel_for(8, [&](std::size_t i) { seen[i] = std::this_thread::get_id(); },
               1);
  for (const auto& id : seen) {
    EXPECT_EQ(id, caller);
  }
}

TEST(ParallelFor, InlinePathExecutesAllIndicesAndRethrowsFirst) {
  // Regression: the inline path must share the threaded contract — every
  // index runs exactly once and the FIRST exception is rethrown at the end,
  // not thrown mid-loop with the tail skipped.
  std::vector<int> hits(16, 0);
  try {
    parallel_for(16,
                 [&](std::size_t i) {
                   ++hits[i];
                   if (i == 3 || i == 9) {
                     throw Error("boom at " + std::to_string(i));
                   }
                 },
                 1);
    FAIL() << "should have rethrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("boom at 3"), std::string::npos);
  }
  for (const int h : hits) {
    EXPECT_EQ(h, 1);
  }
}

TEST(ParallelFor, ThreadedPathExecutesAllIndicesDespiteExceptions) {
  std::vector<std::atomic<int>> hits(64);
  EXPECT_THROW(parallel_for(64,
                            [&](std::size_t i) {
                              hits[i].fetch_add(1);
                              if (i % 5 == 0) {
                                throw Error("boom");
                              }
                            },
                            4),
               Error);
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

class ThreadsEnvGuard {
 public:
  ThreadsEnvGuard() {
    if (const char* env = std::getenv("TREEMEM_THREADS")) {
      saved_ = env;
      had_ = true;
    }
  }
  ~ThreadsEnvGuard() {
    if (had_) {
      ::setenv("TREEMEM_THREADS", saved_.c_str(), 1);
    } else {
      ::unsetenv("TREEMEM_THREADS");
    }
  }

 private:
  std::string saved_;
  bool had_ = false;
};

TEST(ParallelFor, DefaultThreadCountHonorsTreememThreads) {
  ThreadsEnvGuard guard;
  ::setenv("TREEMEM_THREADS", "3", 1);
  EXPECT_EQ(default_thread_count(), 3u);
  ::setenv("TREEMEM_THREADS", "1", 1);
  EXPECT_EQ(default_thread_count(), 1u);
  // Absurd values are capped rather than exhausting thread handles.
  ::setenv("TREEMEM_THREADS", "999999", 1);
  EXPECT_EQ(default_thread_count(), 1024u);
}

TEST(ParallelFor, DefaultThreadCountRejectsMalformedTreememThreads) {
  ThreadsEnvGuard guard;
  ::unsetenv("TREEMEM_THREADS");
  const unsigned fallback = default_thread_count();
  EXPECT_GE(fallback, 1u);
  // Invalid settings throw (strict parse through support/env.hpp): a typo
  // surfaces at startup instead of silently changing the thread count.
  for (const char* bad : {"0", "-2", "abc", "4x", " 4", "+4"}) {
    ::setenv("TREEMEM_THREADS", bad, 1);
    EXPECT_THROW(default_thread_count(), Error) << "value: '" << bad << "'";
  }
  // An empty value means "unset", not "malformed".
  ::setenv("TREEMEM_THREADS", "", 1);
  EXPECT_EQ(default_thread_count(), fallback);
}

TEST(EnvLayer, StrictParsersAcceptAndReject) {
  ThreadsEnvGuard guard;  // reuses TREEMEM_THREADS as the scratch variable
  ::setenv("TREEMEM_THREADS", "42", 1);
  EXPECT_EQ(env_int("TREEMEM_THREADS", 1, 100).value(), 42);
  EXPECT_THROW(env_int("TREEMEM_THREADS", 1, 10), Error);  // out of range
  EXPECT_EQ(env_string("TREEMEM_THREADS").value(), "42");
  ::unsetenv("TREEMEM_THREADS");
  EXPECT_FALSE(env_int("TREEMEM_THREADS", 1, 100).has_value());
  EXPECT_FALSE(env_string("TREEMEM_THREADS").has_value());

  EXPECT_EQ(parse_int_strict("-7", -10, 10, "test"), -7);
  for (const char* bad : {"", "-", "1.5", "0x10", "9999999999999999999999"}) {
    EXPECT_THROW(parse_int_strict(bad, -100, 100, "test"), Error)
        << "value: '" << bad << "'";
  }

  ::setenv("TREEMEM_THREADS", "1.5", 1);
  EXPECT_DOUBLE_EQ(env_double("TREEMEM_THREADS", 0.0, 10.0).value(), 1.5);
  ::setenv("TREEMEM_THREADS", "2e-1", 1);
  EXPECT_DOUBLE_EQ(env_double("TREEMEM_THREADS", 0.0, 10.0).value(), 0.2);
  // Same strictness as the integer parser: no '+', hex floats, inf/nan.
  for (const char* bad : {"fast", "+4", "0x10", " 1", "inf", "nan"}) {
    ::setenv("TREEMEM_THREADS", bad, 1);
    EXPECT_THROW(env_double("TREEMEM_THREADS", 0.0, 100.0), Error)
        << "value: '" << bad << "'";
  }
}

TEST(Check, MessagesCarryContext) {
  try {
    TM_CHECK(1 == 2, "custom " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom 42"), std::string::npos);
  }
}

}  // namespace
}  // namespace treemem
