// End-to-end benchmark of record.
//
// Drives the public API (Solver, SolverPool) on four fixed workloads from
// one process and prints every metric by name and unit. Every solution is
// checked (residual, column count, and on blocktri-budget the measured peak
// against the budget); failures are counted, never fatal.
//
//   --trace 0  the end-to-end run: wall-clock metrics with tracing off.
//   --trace 1  the per-layer run: the public entry point of each module
//              (order, symbolic, core, dense, multifrontal, parallel,
//              solver, obs) is called from this file on the same inputs,
//              each inside an obs::TraceSpan, and the Chrome trace is
//              written next to the results.
//
// The last stdout line is one JSON object with the keys correct,
// attempted, failed, metrics (every metric measured: value, unit, sample
// count and, for medians, the within-run min, quartiles and max) and host.
// bench/e2e/run.py builds this program, runs it and keeps the metrics
// BENCHMARK.json names.
//
// Settings are the library defaults except the two every workload pins:
// 4 workers and the workload's memory budget. A later change of a default
// (kernel, admission policy, ...) therefore shows up as a measured change.
//
// Every gated time and rate is host-speed adjusted (host_reference.hpp);
// the raw value is reported beside it as raw.<name>.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <exception>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dense/spd_front.hpp"
#include "host_reference.hpp"
#include "treemem.hpp"

namespace treemem::e2e {
namespace {

constexpr int kWorkers = 4;
constexpr double kMaxResidual = 1e-10;
/// Set-up is repeated and its median reported, so one slow round (page
/// faults, a neighbour's burst) does not move setup_s.
constexpr int kSetupRounds = 5;
/// Timed loops run for --seconds, so a run takes the same time on every
/// commit and a faster commit collects more samples. This is their lower
/// bound on repetitions.
constexpr int kMinReps = 3;
/// Structure is fixed per workload; --seed only drives values, request
/// order and hole patterns.
constexpr std::uint64_t kStructureSeed = 20110516;
/// Median time of the host-speed reference on the uncontended host the
/// bounds were set on (README.md): host speed 1 there.
constexpr double kReferenceSeconds = 0.032;
/// While the reference is timed, the other threads of the process may use
/// at most this share of its wall time.
constexpr double kMaxForeignCpuShare = 0.1;

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  ///< required: run.py passes BENCHMARK.json's value
  bool trace = false;
  bool smoke = false;  ///< toy sizes, for the self-test
  std::string out_dir = ".";
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "e2e_bench: " << message << "\n"
            << "usage: e2e_bench --workload W --seconds S [--seed N] "
               "[--trace 0|1] [--smoke] [--out DIR]\n"
            << "--smoke runs toy sizes for 0.2 s, ignoring --seconds\n"
            << "workloads: grid3d-nd grid2d-nd blocktri-budget "
               "service-mixed\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value after " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = static_cast<std::uint64_t>(
          parse_int_strict(value, 0, 1LL << 62, "--seed"));
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(
          parse_int_strict(value, 1, 3600, "--seconds"));
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (args.smoke) {
    args.seconds = 0.2;  // toy sizes need only a short window
  } else if (args.seconds <= 0.0) {
    usage("--seconds is required");
  }
  return args;
}

// ---------------------------------------------------------------------------
// Statistics and reporting
// ---------------------------------------------------------------------------

/// Linearly interpolated quantile (numpy's default), q in [0, 1].
double quantile(std::vector<double> values, double q) {
  TM_CHECK(!values.empty(), "quantile of an empty sample");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
  /// min, q1, q3, max of the samples behind a median; empty otherwise.
  std::vector<double> spread;
};

/// Counts attempted and failed checked operations; the first failures are
/// described on stderr.
struct Tally {
  long long attempted = 0;
  long long failed = 0;
  /// Largest measured / modeled peak over the checked factorizations (the
  /// engine throws if measured ever exceeds modeled).
  double peak_ratio = 0.0;

  void record(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      if (failed < 10) std::cerr << "e2e_bench: FAILED " << what << "\n";
      ++failed;
    }
  }
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1) {
    TM_CHECK(std::isfinite(value), "metric " << name << " is not finite");
    metrics_.push_back({name, value, unit, samples, {}});
  }

  /// The median of `values`, recorded with its within-run spread.
  void add_median(const std::string& name, const std::vector<double>& values,
                  const std::string& unit) {
    add(name, median(values), unit, values.size());
    metrics_.back().spread = {quantile(values, 0.0), quantile(values, 0.25),
                              quantile(values, 0.75), quantile(values, 1.0)};
  }

  void print(std::ostream& os, const std::string& workload) const {
    for (const Metric& m : metrics_) {
      char line[256];
      std::snprintf(line, sizeof(line), "%-16s %-34s %16.6g %-8s n=%zu\n",
                    workload.c_str(), m.name.c_str(), m.value,
                    m.unit.c_str(), m.samples);
      os << line;
    }
  }

  std::string json(const Tally& tally) const {
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << tally.attempted
       << ", \"failed\": " << tally.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << m.value
         << ", \"unit\": \"" << m.unit << "\", \"samples\": " << m.samples;
      if (!m.spread.empty()) {
        os << ", \"min_q1_q3_max\": [" << m.spread[0] << ", " << m.spread[1]
           << ", " << m.spread[2] << ", " << m.spread[3] << "]";
      }
      os << "}";
    }
    os << "}, \"host\": {\"hardware_concurrency\": "
       << std::thread::hardware_concurrency()
       << ", \"pool_threads\": " << WorkerPool::instance().size()
       << ", \"compiler\": \"" << E2E_COMPILER << "\", \"build_type\": \""
       << E2E_BUILD_TYPE << "\"}}";
    return os.str();
  }

 private:
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------------
// Host-speed adjustment
// ---------------------------------------------------------------------------

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// The host-speed reference, timed while the library is idle, before each
/// set-up round, repetition or service segment. The times measured after
/// a sample are multiplied by the speed it shows.
class HostSpeed {
 public:
  /// Times the reference once and returns the host speed it shows:
  /// kReferenceSeconds over its time, 1 on the uncontended host and below
  /// 1 while neighbours slow it down. The sample is a failed check when
  /// other threads of the process ran meanwhile: the adjustment assumes
  /// the library idles between calls, and a library that kept threads
  /// busy would slow the reference and so read as faster.
  double sample(Tally& tally) {
    const double process = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
    const double thread = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
    const double wall = time_host_reference();
    const double foreign = (cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - process) -
                           (cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - thread);
    tally.record(foreign <= kMaxForeignCpuShare * wall,
                 "host reference shared the process with " +
                     std::to_string(foreign) + " s of other threads");
    seconds_.push_back(wall);
    speeds_.push_back(kReferenceSeconds / wall);
    return speeds_.back();
  }

  void add_metrics(Report& report) const {
    report.add_median("host.reference_s", seconds_, "s");
    report.add_median("host.speed", speeds_, "ratio");
  }

 private:
  std::vector<double> seconds_;
  std::vector<double> speeds_;
};

/// Samples of one time, raw and host-speed adjusted.
struct Times {
  std::vector<double> raw;
  std::vector<double> adjusted;

  void add(double seconds, double speed) {
    raw.push_back(seconds);
    adjusted.push_back(seconds * speed);
  }

  /// Adds the adjusted median as `name` and the raw one as raw.<name>.
  void report(Report& report, const std::string& name) const {
    report.add_median(name, adjusted, "s");
    report.add_median("raw." + name, raw, "s");
  }
};

/// Adds `count` / `adjusted_seconds` as `name` and `count` / `raw_seconds`
/// as raw.<name>.
void add_rate(Report& report, const std::string& name, double count,
              double raw_seconds, double adjusted_seconds,
              std::size_t samples) {
  report.add(name, count / adjusted_seconds, "1/s", samples);
  report.add("raw." + name, count / raw_seconds, "1/s", samples);
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Independent 64-bit stream `stream` of run seed `seed`.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  Prng prng(seed * 0x9E3779B97F4A7C15ULL + stream);
  return prng.next_u64();
}

/// One request: SPD values on the pattern and one right-hand side.
struct Request {
  SymmetricMatrix matrix;
  std::vector<double> rhs;
};

std::vector<double> make_rhs(std::size_t n, std::uint64_t value_seed) {
  Prng prng(value_seed ^ 0x5157CE5BULL);
  std::vector<double> b(n);
  for (double& entry : b) entry = prng.uniform_real(-1.0, 1.0);
  return b;
}

Request make_request(const SparsePattern& pattern, std::uint64_t value_seed) {
  return {make_spd_matrix(pattern, value_seed),
          make_rhs(static_cast<std::size_t>(pattern.cols()), value_seed)};
}

bool solution_ok(const SymmetricMatrix& a, const std::vector<double>& x,
                 const std::vector<double>& b) {
  // Written so a NaN residual fails.
  return x.size() == b.size() && relative_residual(a, x, b) <= kMaxResidual;
}

std::vector<Index> order_pattern(OrderingChoice choice,
                                 const SparsePattern& pattern) {
  switch (choice) {
    case OrderingChoice::kNatural:
      return natural_order(pattern.cols());
    case OrderingChoice::kRcm:
      return rcm_order(pattern);
    case OrderingChoice::kMinDegree:
      return min_degree_order(pattern);
    case OrderingChoice::kNestedDissection:
      return nested_dissection_order(pattern);
  }
  TM_CHECK(false, "unknown ordering");
  return {};
}

// ---------------------------------------------------------------------------
// Factor workloads: grid3d-nd, grid2d-nd, blocktri-budget
// ---------------------------------------------------------------------------

/// A workload's pattern and the solver options it runs under.
struct Problem {
  SparsePattern pattern;
  SolverOptions options;  ///< defaults + 4 workers + the budget
};

/// Default options with the two pinned settings.
SolverOptions pinned_options(OrderingChoice ordering, Weight budget) {
  SolverOptions options;
  options.analyze.ordering = ordering;
  options.plan.memory_budget = budget;
  options.factorize.workers = kWorkers;
  return options;
}

Problem make_factor_problem(const std::string& name, bool smoke) {
  Problem problem;
  if (name == "grid3d-nd") {
    const Index edge = smoke ? 6 : 22;
    problem.pattern = gen::grid3d(edge, edge, edge, /*twentyseven_point=*/true);
    problem.options = pinned_options(OrderingChoice::kNestedDissection,
                               kInfiniteWeight);
  } else if (name == "grid2d-nd") {
    const Index edge = smoke ? 32 : 384;
    problem.pattern = gen::grid2d(edge, edge);
    problem.options = pinned_options(OrderingChoice::kNestedDissection,
                               kInfiniteWeight);
  } else {
    Prng structure(kStructureSeed);
    problem.pattern = smoke ? gen::block_tridiagonal(16, 8, 0.25, structure)
                      : gen::block_tridiagonal(256, 48, 0.25, structure);
    // Budget: 1.5x the plan's MinMem optimum — the regime where admission
    // decides between stalling and running in parallel.
    Solver calibrate(pinned_options(OrderingChoice::kNestedDissection,
                                    kInfiniteWeight));
    calibrate.analyze(problem.pattern).plan();
    const Weight budget = calibrate.stats().in_core_optimum * 3 / 2;
    problem.options = pinned_options(OrderingChoice::kNestedDissection, budget);
  }
  return problem;
}

/// Checks one factorize+solve of the facade: the solution, and under a
/// finite budget the measured peak against it. Records measured against
/// modeled peak.
void check_facade(const Solver& solver, const Request& request,
                  const std::vector<double>& x, Weight budget, Tally& tally,
                  const char* what) {
  const SolverStats stats = solver.stats();
  tally.peak_ratio =
      std::max(tally.peak_ratio, ratio(stats.measured_peak_entries,
                                       stats.modeled_peak_entries));
  tally.record(solution_ok(request.matrix, x, request.rhs) &&
                   (budget >= kInfiniteWeight ||
                    stats.measured_peak_entries <= budget),
               what);
}

/// A fresh Solver running analyze -> plan -> factorize -> solve (1 RHS).
/// Returns the wall seconds; the solver stays factorized for refactors.
double fresh_solve(const Problem& problem, const Request& request,
                   Solver& solver, Tally& tally) {
  Timer timer;
  try {
    solver = Solver(problem.options);
    solver.analyze(problem.pattern).plan().factorize(request.matrix);
    const std::vector<double> x = solver.solve(request.rhs);
    const double seconds = timer.elapsed_s();
    check_facade(solver, request, x, problem.options.plan.memory_budget, tally,
                 "fresh solve");
    return seconds;
  } catch (const std::exception& e) {
    tally.record(false, std::string("fresh solve threw: ") + e.what());
  }
  return timer.elapsed_s();
}

/// factorize(new values) + solve on the kept symbolic state.
double refactor_solve(const Problem& problem, const Request& request,
                      Solver& solver, Tally& tally) {
  Timer timer;
  try {
    solver.factorize(request.matrix);
    const std::vector<double> x = solver.solve(request.rhs);
    const double seconds = timer.elapsed_s();
    check_facade(solver, request, x, problem.options.plan.memory_budget, tally,
                 "refactor");
    return seconds;
  } catch (const std::exception& e) {
    tally.record(false, std::string("refactor threw: ") + e.what());
  }
  return timer.elapsed_s();
}

/// Set-up: build the workload's inputs and run one warm-up fresh solve.
/// Each of `rounds` rounds does it anew, after a host reference sample when
/// `host` is given, and adds its time to `seconds`.
Problem setup_factor(const Args& args, int rounds, HostSpeed* host,
                     Times& seconds, Tally& tally) {
  Problem problem;
  for (int round = 0; round < rounds; ++round) {
    const double speed = host != nullptr ? host->sample(tally) : 1.0;
    Timer timer;
    problem = make_factor_problem(args.workload, args.smoke);
    const std::uint64_t stream = 1000000 + static_cast<std::uint64_t>(round);
    const Request warm = make_request(problem.pattern, mix(args.seed, stream));
    Solver solver;
    fresh_solve(problem, warm, solver, tally);
    seconds.add(timer.elapsed_s(), speed);
  }
  return problem;
}

void run_factor_untraced(const Args& args, Report& report, Tally& tally) {
  HostSpeed host;
  Times setup;
  const Problem problem =
      setup_factor(args, kSetupRounds, &host, setup, tally);
  Times fresh, refactor, busy;  // busy: the repetitions, whole
  std::vector<double> latency;
  long long columns = 0;
  Timer window;
  for (int rep = 0; rep < kMinReps || window.elapsed_s() < args.seconds;
       ++rep) {
    const double speed = host.sample(tally);
    Timer rep_timer;
    {
      const std::uint64_t k = 2 * static_cast<std::uint64_t>(rep);
      const Request first = make_request(problem.pattern, mix(args.seed, k));
      const Request second =
          make_request(problem.pattern, mix(args.seed, k + 1));
      Solver solver;
      fresh.add(fresh_solve(problem, first, solver, tally), speed);
      refactor.add(refactor_solve(problem, second, solver, tally), speed);
      latency.push_back(fresh.raw.back());
      latency.push_back(refactor.raw.back());
      columns += 2;
    }
    busy.add(rep_timer.elapsed_s(), speed);
  }
  setup.report(report, "setup_s");
  fresh.report(report, "time_to_solution_s");
  refactor.report(report, "refactor_s");
  add_rate(report, "solves_per_s", static_cast<double>(columns),
           sum(busy.raw), sum(busy.adjusted), latency.size());
  // Fresh and refactor requests together; with this few samples the
  // percentile sits on the slowest fresh solves.
  report.add("latency_p99_s", quantile(latency, 0.99), "s", latency.size());
  report.add("peak_measured_over_modeled", tally.peak_ratio, "ratio",
             setup.raw.size() + latency.size());
  host.add_metrics(report);
}

// ---------------------------------------------------------------------------
// Per-layer attribution (the --trace 1 run)
// ---------------------------------------------------------------------------

/// analyze(+plan)/factorize/solve shares of the solver phase seconds.
void add_phase_shares(const std::map<std::string, double>& phases,
                      Report& report) {
  double total = 0.0;
  for (const auto& [name, seconds] : phases) total += seconds;
  const auto share = [&](const char* name) {
    const auto it = phases.find(name);
    return it == phases.end() ? 0.0 : ratio(it->second, total);
  };
  report.add("solver.analyze_share", share("analyze") + share("plan"),
             "ratio");
  report.add("solver.factorize_share", share("factorize"), "ratio");
  report.add("solver.solve_share", share("solve"), "ratio");
}

/// Best-of-5 GFLOP/s of a single-core multiply-add loop at the build's
/// instruction set: the ceiling dense.front_gflops is compared with.
/// host_reference.cpp has a similar loop that must not follow the build's
/// options, so the two stay separate.
double host_peak_gflops() {
  using Vec = double __attribute__((vector_size(32)));
  constexpr int kChains = 8;  // independent chains hide the add latency
  constexpr long long kIters = 1 << 22;
  double best = 0.0;
  for (int trial = 0; trial < 5; ++trial) {
    Vec acc[kChains];
    for (int c = 0; c < kChains; ++c) {
      acc[c] = Vec{1.0, 1.0, 1.0, 1.0} * (1.0 + 1e-3 * c);
    }
    const Vec mul = {0.9999999, 0.9999998, 0.9999997, 0.9999996};
    const Vec add = {1e-7, 2e-7, 3e-7, 4e-7};
    Timer timer;
    for (long long i = 0; i < kIters; ++i) {
      for (int c = 0; c < kChains; ++c) acc[c] = acc[c] * mul + add;
    }
    const double seconds = timer.elapsed_s();
    double sink = 0.0;
    for (int c = 0; c < kChains; ++c) {
      for (int l = 0; l < 4; ++l) sink += acc[c][l];
    }
    TM_CHECK(std::isfinite(sink), "peak loop diverged");
    best = std::max(best, 2.0 * 4 * kChains * kIters / seconds * 1e-9);
  }
  return best;
}

/// Front order and pivot count (m, eta) of the largest front of the tree.
std::pair<std::size_t, std::size_t> largest_front(const AssemblyTree& a) {
  std::size_t best_m = 0, best_eta = 0;
  for (std::size_t s = 0; s < a.eta.size(); ++s) {
    if (a.eta[s] == 0) continue;  // virtual root
    const std::size_t m = static_cast<std::size_t>(a.eta[s] + a.mu[s] - 1);
    if (m > best_m) {
      best_m = m;
      best_eta = static_cast<std::size_t>(a.eta[s]);
    }
  }
  return {best_m, best_eta};
}

/// Times every module's public entry point on `problem` with the values
/// and right-hand side of `request`, each in an obs::TraceSpan, and adds
/// the per-layer metrics (all but obs.*). Expects the recorder to be
/// running. The calls that emit the most events (the engines) run first,
/// so the ring buffers keep the later layer spans for the exported trace.
void measure_layers(const Problem& problem, const Request& request,
                    Report& report, Tally& tally) {
  const SparsePattern& pattern = problem.pattern;
  const SolverOptions& options = problem.options;
  const Weight budget = options.plan.memory_budget;
  const KernelConfig& kernel = options.factorize.kernel;

  // Reference time to solution, with the recorder paused so it is the
  // untraced number the layer sum is compared against.
  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  recorder.stop();
  Timer tts_timer;
  Solver solver(options);
  solver.analyze(pattern).plan().factorize(request.matrix);
  std::vector<double> x = solver.solve(request.rhs);
  const double tts = tts_timer.elapsed_s();
  check_facade(solver, request, x, budget, tally, "layer reference solve");
  recorder.start();

  double layer_sum = 0.0;
  const auto timed = [&](const char* name, const std::function<void()>& fn) {
    obs::TraceSpan span(name, "e2e");
    Timer timer;
    fn();
    return timer.elapsed_s();
  };

  // multifrontal: the serial engine along the planned traversal (w=1)
  const SymmetricMatrix pa = request.matrix.permuted(solver.permutation());
  std::vector<double> pb(request.rhs.size());
  for (std::size_t k = 0; k < pb.size(); ++k) {
    pb[k] = request.rhs[static_cast<std::size_t>(solver.permutation()[k])];
  }
  MultifrontalResult serial;
  const double serial_s = timed("multifrontal", [&] {
    serial = multifrontal_cholesky(pa, solver.assembly(),
                                   solver.planned_traversal(), kernel);
  });
  tally.record(solution_ok(pa, solve_with_factor(serial.factor, pb), pb),
               "serial multifrontal factor");
  report.add("multifrontal.serial_seconds", serial_s, "s");
  report.add("multifrontal.flops", static_cast<double>(serial.flops),
             "count");
  report.add("multifrontal.serial_gflops", serial.flops / serial_s * 1e-9,
             "GFLOP/s");
  report.add("multifrontal.serial_peak_entries",
             static_cast<double>(serial.peak_live_entries), "entries");

  // parallel: the threaded engine with the facade's settings
  const ParallelFactorOptions parallel_options{
      .workers = kWorkers,
      .memory_budget = budget,
      .priority = options.factorize.priority,
      .admission = options.factorize.admission,
      .serial_witness = solver.planned_traversal(),
      .kernel = kernel,
      .lease_idle_workers = options.factorize.lease_idle_workers};
  const WorkerPoolStats pool_before = WorkerPool::instance().stats();
  ParallelFactorResult run;
  double parallel_s = timed("parallel", [&] {
    run = factor_parallel(pa, solver.assembly(), parallel_options);
  });
  const WorkerPoolStats pool_after = WorkerPool::instance().stats();
  Weight measured_peak = run.measured_peak_entries;
  Weight modeled_peak = run.modeled_peak_entries;
  if (run.feasible) {
    tally.record(solution_ok(pa, solve_with_factor(run.factor, pb), pb),
                 "parallel factor");
  } else {
    // A stalled schedule: the facade reruns serially, so the layer's cost
    // is the stalled attempt plus the serial engine.
    parallel_s += serial_s;
    measured_peak = serial.peak_live_entries;
    modeled_peak = solver.stats().planned_peak_entries;
  }
  tally.record(budget >= kInfiniteWeight || measured_peak <= budget,
               "parallel peak within budget");
  ParallelOptions sim;
  sim.workers = kWorkers;
  sim.memory_budget = budget;
  sim.priority = parallel_options.priority;
  sim.admission = parallel_options.admission;
  sim.serial_witness = solver.planned_traversal();
  const ParallelScheduleResult simulated = simulate_parallel_traversal(
      solver.assembly().tree, sim,
      FrontalEngine(pa, solver.assembly(), kernel).estimated_front_flops());
  const double measured_speedup = ratio(serial_s, parallel_s);
  // An infeasible simulated schedule falls back to serial: speedup 1.
  const double simulated_speedup =
      simulated.feasible ? simulated.speedup : 1.0;
  const long long granted =
      pool_after.leases_granted - pool_before.leases_granted;
  const long long denied = pool_after.leases_denied - pool_before.leases_denied;
  report.add("parallel.factor_seconds", parallel_s, "s");
  report.add("parallel.measured_speedup", measured_speedup, "ratio");
  report.add("parallel.busy_speedup", run.speedup, "ratio");
  report.add("parallel.simulated_speedup", simulated_speedup, "ratio");
  report.add("parallel.model_error",
             ratio(simulated_speedup, measured_speedup) - 1.0, "ratio");
  report.add("parallel.leases_granted", granted, "count");
  report.add("parallel.leases_denied", denied, "count");
  report.add("parallel.lease_grant_ratio",
             ratio(granted, static_cast<double>(granted + denied)), "ratio");
  report.add("parallel.pool_threads_spawned_delta",
             pool_after.threads_spawned - pool_before.threads_spawned,
             "count");
  report.add("parallel.stall_fallbacks", run.feasible ? 0 : 1, "count");
  report.add("parallel.measured_peak_entries",
             static_cast<double>(measured_peak), "entries");
  report.add("parallel.modeled_peak_entries",
             static_cast<double>(modeled_peak), "entries");
  report.add("parallel.measured_over_planned",
             ratio(measured_peak, solver.stats().planned_peak_entries),
             "ratio");
  layer_sum += parallel_s;

  // order
  std::vector<Index> perm;
  const double order_s = timed("order", [&] {
    perm = order_pattern(options.analyze.ordering, pattern);
  });
  const SparsePattern permuted = permute_symmetric(pattern, perm);
  report.add("order.seconds", order_s, "s");
  report.add("order.factor_nnz", static_cast<double>(factor_nnz(permuted)),
             "count");
  layer_sum += order_s;

  // symbolic
  AssemblyTree assembly;
  const double symbolic_s = timed("symbolic", [&] {
    assembly = build_assembly_tree(
        permuted, AssemblyTreeOptions{options.analyze.relax,
                                      options.analyze.perfect});
  });
  report.add("symbolic.seconds", symbolic_s, "s");
  report.add("symbolic.supernodes", assembly.tree.size(), "count");
  layer_sum += symbolic_s;

  // core: the two traversal searches plan() runs
  TraversalResult postorder;
  MinMemResult minmem;
  const double plan_s = timed("core", [&] {
    postorder = best_postorder(assembly.tree);
    minmem = minmem_optimal(assembly.tree);
  });
  report.add("core.plan_seconds", plan_s, "s");
  report.add("core.planned_peak_entries",
             static_cast<double>(solver.stats().planned_peak_entries),
             "entries");
  report.add("core.minmem_peak_entries", static_cast<double>(minmem.peak),
             "entries");
  report.add("core.postorder_peak_entries",
             static_cast<double>(postorder.peak), "entries");
  layer_sum += plan_s;

  // dense: the default kernel on a synthetic front of the largest (m, eta)
  const auto [m, eta] = largest_front(assembly);
  const std::vector<double> front = make_dense_spd_front(m, 1);
  const std::unique_ptr<const FrontKernel> front_kernel =
      make_front_kernel(kernel);
  std::vector<double> gflops;
  Timer dense_budget;
  while (gflops.size() < 3 ||
         (gflops.size() < 5 && dense_budget.elapsed_s() < 0.5)) {
    std::vector<double> work = front;
    long long flops = 0;
    const double s = timed("dense", [&] {
      flops = front_kernel->partial_factor(work.data(), m, eta, nullptr);
    });
    gflops.push_back(flops / s * 1e-9);
  }
  const double peak = host_peak_gflops();
  report.add_median("dense.front_gflops", gflops, "GFLOP/s");
  report.add("dense.host_peak_gflops", peak, "GFLOP/s", 5);
  report.add("dense.fraction_of_peak", ratio(median(gflops), peak), "ratio");

  // solver: triangular solves on the factored facade
  std::vector<double> per_rhs;
  Timer solve_budget;
  while (per_rhs.size() < 5 ||
         (per_rhs.size() < 50 && solve_budget.elapsed_s() < 0.5)) {
    const std::vector<double> b =
        make_rhs(request.rhs.size(), 7 + per_rhs.size());
    const double s = timed("solve", [&] { x = solver.solve(b); });
    tally.record(solution_ok(request.matrix, x, b), "layer solve");
    per_rhs.push_back(s);
  }
  report.add_median("solver.solve_seconds_per_rhs", per_rhs, "s");
  layer_sum += median(per_rhs);
  report.add("solver.unattributed_share", (tts - layer_sum) / tts, "ratio");
}

/// Median traced over median untraced refactor+solve, alternating pairs.
double factor_trace_overhead(const Problem& problem, const Request& request,
                             double seconds, Tally& tally) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  Solver solver;
  fresh_solve(problem, request, solver, tally);
  std::vector<double> traced, untraced;
  Timer window;
  for (int pair = 0; pair < 2 || window.elapsed_s() < seconds; ++pair) {
    for (const bool on : {pair % 2 == 0, pair % 2 != 0}) {
      if (on) recorder.start();
      const double s = refactor_solve(problem, request, solver, tally);
      if (on) recorder.stop();
      (on ? traced : untraced).push_back(s);
    }
  }
  return ratio(median(traced), median(untraced));
}

// ---------------------------------------------------------------------------
// service-mixed: closed loop against a SolverPool
// ---------------------------------------------------------------------------

constexpr int kClients = 4;
constexpr int kHotPatterns = 8;
constexpr double kColdShare = 0.1;
constexpr double kHoleFraction = 0.1;
constexpr int kMaxRhs = 4;
/// The untraced loop pauses this often to time the host reference.
constexpr double kServiceSegmentSeconds = 2.0;

struct ServiceWorkload {
  std::vector<SparsePattern> hot;
  Index cold_edge = 0;
  std::unique_ptr<SolverPool> pool;
};

SolverPoolOptions pool_options() {
  SolverPoolOptions options;  // defaults, except the pinned width
  options.workers = kWorkers;
  return options;
}

struct ServiceSample {
  double latency = 0.0;  ///< submit -> ready future
  double service = 0.0;  ///< SolveOutcome::seconds
  bool cold = false;     ///< never-seen pattern
  double speed = 1.0;    ///< host speed sampled before the request's segment
};

struct ServiceLoop {
  std::vector<ServiceSample> samples;
  long long columns = 0;
  double wall = 0.0;

  void append(const ServiceLoop& other) {
    samples.insert(samples.end(), other.samples.begin(), other.samples.end());
    columns += other.columns;
    wall += other.wall;
  }
};

/// One request of the mix and whether its pattern is never-seen.
struct MixRequest {
  SolveRequest request;
  bool cold = false;
};

/// A request on `pattern` with fresh values and 1..kMaxRhs right-hand
/// sides.
MixRequest make_mix_request(const SparsePattern& pattern, bool cold,
                            Prng& prng) {
  const std::uint64_t value_seed = prng.next_u64();
  const int num_rhs = static_cast<int>(prng.uniform_int(1, kMaxRhs));
  MixRequest m;
  m.cold = cold;
  m.request.matrix = make_spd_matrix(pattern, value_seed);
  for (int c = 0; c < num_rhs; ++c) {
    m.request.rhs.push_back(
        make_rhs(static_cast<std::size_t>(pattern.cols()),
                 value_seed + static_cast<std::uint64_t>(c)));
  }
  return m;
}

/// The next request of the mix: 90% reuse a hot pattern, 10% bring a
/// never-seen hole-punched grid.
MixRequest draw_request(const ServiceWorkload& w, Prng& prng) {
  if (prng.bernoulli(kColdShare)) {
    return make_mix_request(gen::grid2d_with_holes(w.cold_edge, w.cold_edge,
                                                   kHoleFraction, prng),
                            true, prng);
  }
  return make_mix_request(
      w.hot[static_cast<std::size_t>(prng.uniform_int(0, kHotPatterns - 1))],
      false, prng);
}

bool solutions_ok(const SolveRequest& request,
                  const std::vector<std::vector<double>>& x) {
  bool ok = x.size() == request.rhs.size();
  for (std::size_t c = 0; ok && c < x.size(); ++c) {
    ok = solution_ok(request.matrix, x[c], request.rhs[c]);
  }
  return ok;
}

/// Submits one request and waits for it; the solutions are checked on
/// return.
ServiceSample serve_one(SolverPool& pool, const MixRequest& m,
                        long long& columns, Tally& tally) {
  SolveRequest request = m.request;  // copied before the clock starts
  ServiceSample sample;
  sample.cold = m.cold;
  Timer timer;
  try {
    const SolveOutcome outcome = pool.submit(std::move(request)).get();
    sample.latency = timer.elapsed_s();
    sample.service = outcome.seconds;
    tally.record(solutions_ok(m.request, outcome.solutions),
                 m.cold ? "cold request" : "hot request");
    columns += static_cast<long long>(m.request.rhs.size());
  } catch (const std::exception& e) {
    sample.latency = timer.elapsed_s();
    tally.record(false, std::string("request threw: ") + e.what());
  }
  return sample;
}

/// kClients threads, each waiting for its reply before the next submit,
/// for `seconds`. 90% of requests reuse one of the hot patterns, 10% bring
/// a never-seen hole-punched grid; values are fresh on every request.
/// With `seconds` = 0 each client sends one request, drawn before the
/// clients start so that they submit together and each pool worker serves
/// one of them.
ServiceLoop run_service_loop(const ServiceWorkload& w, std::uint64_t seed,
                             double seconds, Tally& tally) {
  const auto client_seed = [seed](int c) {
    return mix(seed, 2000000 + static_cast<std::uint64_t>(c));
  };
  std::vector<MixRequest> batch;
  for (int c = 0; seconds == 0.0 && c < kClients; ++c) {
    Prng prng(client_seed(c));
    batch.push_back(draw_request(w, prng));
  }
  std::vector<ServiceLoop> per_client(kClients);
  std::vector<Tally> tallies(kClients);
  Timer window;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Prng prng(client_seed(c));
      ServiceLoop& mine = per_client[static_cast<std::size_t>(c)];
      Tally& mine_tally = tallies[static_cast<std::size_t>(c)];
      try {
        if (seconds == 0.0) {
          mine.samples.push_back(
              serve_one(*w.pool, batch[static_cast<std::size_t>(c)],
                        mine.columns, mine_tally));
          return;
        }
        for (int sent = 0; sent < kMinReps || window.elapsed_s() < seconds;
             ++sent) {
          mine.samples.push_back(serve_one(*w.pool, draw_request(w, prng),
                                           mine.columns, mine_tally));
        }
      } catch (const std::exception& e) {
        mine_tally.record(false, std::string("client threw: ") + e.what());
      }
    });
  }
  for (std::thread& client : clients) client.join();
  ServiceLoop total;
  total.wall = window.elapsed_s();
  for (int c = 0; c < kClients; ++c) {
    total.append(per_client[static_cast<std::size_t>(c)]);
    tally.attempted += tallies[static_cast<std::size_t>(c)].attempted;
    tally.failed += tallies[static_cast<std::size_t>(c)].failed;
  }
  return total;
}

/// Set-up: build the hot patterns and a fresh pool, then warm the symbolic
/// cache with one request per hot pattern. Each of `rounds` rounds does it
/// anew, after a host reference sample when `host` is given, and appends
/// its time to `seconds`.
ServiceWorkload setup_service(const Args& args, int rounds, HostSpeed* host,
                              Times& seconds, Tally& tally) {
  ServiceWorkload w;
  for (int round = 0; round < rounds; ++round) {
    w.pool.reset();
    w.hot.clear();
    const double speed = host != nullptr ? host->sample(tally) : 1.0;
    Timer timer;
    const Index base = args.smoke ? 10 : 60;
    for (int i = 0; i < kHotPatterns; ++i) {
      const Index edge = base + 2 * static_cast<Index>(i);
      w.hot.push_back(gen::grid2d(edge, edge));
    }
    w.cold_edge = args.smoke ? 12 : 64;
    w.pool = std::make_unique<SolverPool>(pool_options());
    Prng prng(mix(args.seed, 3000000 + static_cast<std::uint64_t>(round)));
    long long columns = 0;
    for (const SparsePattern& pattern : w.hot) {
      serve_one(*w.pool, make_mix_request(pattern, false, prng), columns,
                tally);
    }
    seconds.add(timer.elapsed_s(), speed);
  }
  return w;
}

enum class Requests { kAll, kHot, kCold };

Times latencies(const ServiceLoop& loop, Requests which) {
  Times out;
  for (const ServiceSample& s : loop.samples) {
    if (which == Requests::kAll || s.cold == (which == Requests::kCold)) {
      out.add(s.latency, s.speed);
    }
  }
  return out;
}

void run_service_untraced(const Args& args, Report& report, Tally& tally) {
  HostSpeed host;
  Times setup;
  ServiceWorkload w =
      setup_service(args, kSetupRounds, &host, setup, tally);
  // The loop runs in segments. Between two, no request is in flight and
  // the host reference is timed.
  ServiceLoop loop;
  double adjusted_wall = 0.0;
  for (std::uint64_t segment = 0; loop.wall < args.seconds; ++segment) {
    const double speed = host.sample(tally);
    ServiceLoop part = run_service_loop(
        w, mix(args.seed, segment),
        std::min(kServiceSegmentSeconds, args.seconds - loop.wall), tally);
    for (ServiceSample& s : part.samples) s.speed = speed;
    adjusted_wall += part.wall * speed;
    loop.append(part);
  }
  const Times all = latencies(loop, Requests::kAll);
  const Times cold = latencies(loop, Requests::kCold);
  const Times hot = latencies(loop, Requests::kHot);
  TM_CHECK(!cold.raw.empty() && !hot.raw.empty(),
           "service loop too short to see both request classes");
  setup.report(report, "setup_s");
  cold.report(report, "time_to_solution_s");
  hot.report(report, "refactor_s");
  add_rate(report, "solves_per_s", static_cast<double>(loop.columns),
           loop.wall, adjusted_wall, all.raw.size());
  report.add_median("latency_p50_s", all.raw, "s");
  report.add("latency_p99_s", quantile(all.raw, 0.99), "s", all.raw.size());
  host.add_metrics(report);
}

/// The service-only layer metrics of an untraced loop: queue wait against
/// service time, hot and cold latency, and the symbolic cache counters.
void add_service_layer(const ServiceLoop& loop,
                       const SymbolicCache::Stats& before,
                       const SymbolicCache::Stats& after, Report& report) {
  std::vector<double> wait, service;
  for (const ServiceSample& s : loop.samples) {
    wait.push_back(std::max(0.0, s.latency - s.service));
    service.push_back(s.service);
  }
  report.add_median("solver.queue_wait_p50_s", wait, "s");
  report.add("solver.queue_wait_p99_s", quantile(wait, 0.99), "s",
             wait.size());
  report.add_median("solver.service_p50_s", service, "s");
  report.add("solver.service_p99_s", quantile(service, 0.99), "s",
             service.size());
  report.add_median("solver.hot_latency_p50_s",
                    latencies(loop, Requests::kHot).raw, "s");
  report.add_median("solver.cold_latency_p50_s",
                    latencies(loop, Requests::kCold).raw, "s");
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  report.add("solver.symbolic_hit_ratio", ratio(hits, hits + misses),
             "ratio");
  report.add("solver.symbolic_misses", misses, "count");
}

/// Adds the seconds of every solver phase span (analyze, plan, factorize,
/// solve) in `events` to `phases`. A span whose begin the ring dropped is
/// skipped.
void add_phase_spans(const std::vector<obs::TraceEvent>& events,
                     std::map<std::string, double>& phases) {
  std::map<std::pair<int, std::string>, double> open;  // -> begin, in us
  for (const obs::TraceEvent& e : events) {
    if (e.cat == nullptr || std::strcmp(e.cat, "solver") != 0) continue;
    const std::pair<int, std::string> key{e.tid, e.name};
    if (e.phase == 'B') {
      open[key] = e.ts_us;
    } else if (const auto it = open.find(key);
               e.phase == 'E' && it != open.end()) {
      phases[e.name] += (e.ts_us - it->second) * 1e-6;
      open.erase(it);
    }
  }
}

// ---------------------------------------------------------------------------
// Traced runs
// ---------------------------------------------------------------------------

/// Reports the obs.* metrics and writes the Chrome trace. `dropped_earlier`
/// counts events dropped before the recorder's last clear().
void finish_trace(const Args& args, double overhead,
                  std::uint64_t dropped_earlier, Report& report) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  recorder.stop();
  const obs::TraceRecorder::Stats stats = recorder.stats();
  report.add("obs.trace_overhead_ratio", overhead, "ratio");
  report.add("obs.events_retained", static_cast<double>(stats.retained),
             "count");
  report.add("obs.events_dropped",
             static_cast<double>(stats.dropped + dropped_earlier), "count");
  const std::string path = (std::filesystem::path(args.out_dir) /
                            ("trace_" + args.workload + ".json"))
                               .string();
  recorder.write_chrome_json(path);
  std::cerr << "e2e_bench: wrote " << path << "\n";
}

void run_factor_traced(const Args& args, Report& report, Tally& tally) {
  Times setup;
  const Problem problem = setup_factor(args, 1, nullptr, setup, tally);
  const Request request = make_request(problem.pattern, mix(args.seed, 0));
  // Phase shares of one fresh solve, from the facade's own stats.
  {
    Solver solver;
    fresh_solve(problem, request, solver, tally);
    const SolverStats stats = solver.stats();
    add_phase_shares({{"analyze", stats.analyze_seconds},
                      {"plan", stats.plan_seconds},
                      {"factorize", stats.factorize_seconds},
                      {"solve", stats.solve_seconds}},
                     report);
  }

  const double overhead =
      factor_trace_overhead(problem, request, args.seconds / 2, tally);

  // The exported trace is the layer pass.
  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  recorder.clear();
  recorder.start();
  measure_layers(problem, request, report, tally);
  finish_trace(args, overhead, 0, report);
}

void run_service_traced(const Args& args, Report& report, Tally& tally) {
  Times setup;
  ServiceWorkload w = setup_service(args, 1, nullptr, setup, tally);
  const SymbolicCache::Stats before = w.pool->cache_stats();
  const ServiceLoop untraced =
      run_service_loop(w, mix(args.seed, 1), args.seconds / 2, tally);
  add_service_layer(untraced, before, w.pool->cache_stats(), report);

  // The other half of the run goes in batches of one request per client,
  // untraced and traced in turn. A request emits about 20k events (front,
  // panel and update spans), and a worker's ring holds 32k, so after each
  // traced batch the solver phase spans of the pool's workers are summed
  // and cleared. The phase shares then cover every traced request, cold
  // ones included. The overhead compares batches with batches, because a
  // batch starts its requests together on idle workers.
  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  ServiceLoop batches[2];  // untraced, traced
  std::map<std::string, double> phases;
  std::uint64_t dropped = 0;  // by the traced batches before the last
  Timer window;
  for (std::uint64_t pair = 0;
       pair < 2 || window.elapsed_s() < args.seconds / 2; ++pair) {
    for (const bool traced : {false, true}) {
      if (traced) {
        dropped += recorder.stats().dropped;
        recorder.clear();
        recorder.start();
      }
      const ServiceLoop part = run_service_loop(
          w, mix(args.seed, 2 + 2 * pair + (traced ? 1 : 0)), 0.0, tally);
      if (traced) {
        recorder.stop();
        add_phase_spans(recorder.snapshot(), phases);
      }
      batches[traced ? 1 : 0].append(part);
    }
  }
  add_phase_shares(phases, report);
  // Traced over untraced hot-request median (refactor_s on this workload).
  const double overhead =
      ratio(median(latencies(batches[1], Requests::kHot).raw),
            median(latencies(batches[0], Requests::kHot).raw));

  // The exported trace is the last batch and the layer pass. The layer
  // instance is the largest hot pattern under the pool's own solver
  // options, at the pinned width.
  recorder.start();
  Problem problem{w.hot.back(), pool_options().solver};
  problem.options.factorize.workers = kWorkers;
  measure_layers(problem, make_request(problem.pattern, mix(args.seed, 0)),
                 report, tally);
  finish_trace(args, overhead, dropped, report);
}

int run(const Args& args) {
  const bool service = args.workload == "service-mixed";
  if (!service && args.workload != "grid3d-nd" &&
      args.workload != "grid2d-nd" && args.workload != "blocktri-budget") {
    usage("unknown workload " + args.workload);
  }
  std::filesystem::create_directories(args.out_dir);
  Report report;
  Tally tally;
  if (service) {
    args.trace ? run_service_traced(args, report, tally)
               : run_service_untraced(args, report, tally);
  } else {
    args.trace ? run_factor_traced(args, report, tally)
               : run_factor_untraced(args, report, tally);
  }
  report.add("error_rate", ratio(tally.failed, tally.attempted), "ratio",
             static_cast<std::size_t>(tally.attempted));
  report.print(std::cout, args.workload);
  std::cout << report.json(tally) << std::endl;
  return 0;
}

}  // namespace
}  // namespace treemem::e2e

int main(int argc, char** argv) {
  try {
    return treemem::e2e::run(treemem::e2e::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n";
    return 1;
  }
}
