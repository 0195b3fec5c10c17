// solver_service — throughput of the solver-as-a-service layer.
//
// Replays one deterministic mixed-traffic trace (perf/traffic.hpp: a few
// sparsity patterns hit repeatedly with fresh SPD value sets and varying
// rhs batch sizes) through a SolverPool twice:
//
//   cold   — use_cache = false: every request redoes ordering, assembly
//            tree and traversal planning (the pre-service baseline);
//   cached — use_cache = true: one analyze+plan per distinct pattern,
//            every later request adopts the shared symbolic state.
//
// Round-two scenarios ride the same trace:
//
//   churn-evict    — the symbolic cache capped below the pattern count, so
//                    LRU eviction churns while correctness holds;
//   warm-restart   — symbolic state persisted to a state dir by one pool
//                    and loaded by a fresh one (zero symbolic misses).
//
// Reported per scenario: solves/sec (rhs columns / wall), p50/p99 service
// time (SolveOutcome::seconds, not solve_latency(): the whole trace is
// submitted at once, so a request's queue wait is its place in the burst,
// not a property of the service), cache hits/misses/evictions and the
// pool-aggregated SolverStats — plus the headline cached-vs-cold speedup.
// Scale knobs:
//   TREEMEM_SCALE — multiplies the base grid edge and the request count
//   TREEMEM_OUT   — CSV output directory (solver_service.csv)
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <future>
#include <iomanip>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "perf/traffic.hpp"
#include "support/csv.hpp"
#include "support/text_table.hpp"
#include "treemem.hpp"

using namespace treemem;

namespace {

struct ScenarioResult {
  std::string name;
  long long requests = 0;
  long long rhs_columns = 0;
  double wall_seconds = 0.0;
  double solves_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  long long cache_hits = 0;
  long long cache_misses = 0;
  long long cache_evictions = 0;
  SolverStats totals;
};

double percentile_ms(std::vector<double> latencies, double p) {
  std::sort(latencies.begin(), latencies.end());
  const std::size_t index = static_cast<std::size_t>(
      p * static_cast<double>(latencies.size() - 1) + 0.5);
  return latencies[index] * 1e3;
}

ScenarioResult run_scenario(const std::string& name, const ServiceTrace& trace,
                            const SolverPoolOptions& options,
                            const std::string& load_dir = "",
                            const std::string& save_dir = "") {
  SolverPool pool(options);
  if (!load_dir.empty()) {
    load_symbolic_state(pool.cache(), load_dir);
  }

  // Materialize every request up front: the measured window contains only
  // service work (symbolic, factorize, solves), not matrix generation.
  std::vector<SolveRequest> requests;
  requests.reserve(trace.requests.size());
  for (const ServiceRequest& request : trace.requests) {
    requests.push_back(materialize_request(trace, request));
  }

  Timer wall;
  std::vector<std::future<SolveOutcome>> futures;
  futures.reserve(requests.size());
  for (SolveRequest& request : requests) {
    futures.push_back(pool.submit(std::move(request)));
  }
  ScenarioResult result;
  result.name = name;
  std::vector<double> latencies;
  latencies.reserve(futures.size());
  for (std::future<SolveOutcome>& future : futures) {
    SolveOutcome outcome = future.get();
    result.rhs_columns += static_cast<long long>(outcome.solutions.size());
    latencies.push_back(outcome.seconds);
  }
  result.wall_seconds = wall.elapsed_s();
  result.requests = static_cast<long long>(futures.size());
  result.solves_per_sec =
      result.wall_seconds > 0.0
          ? static_cast<double>(result.rhs_columns) / result.wall_seconds
          : 0.0;
  result.p50_ms = percentile_ms(latencies, 0.50);
  result.p99_ms = percentile_ms(latencies, 0.99);
  const SymbolicCache::Stats cache = pool.cache_stats();
  result.cache_hits = cache.hits;
  result.cache_misses = cache.misses;
  result.cache_evictions = static_cast<long long>(cache.evictions);
  result.totals = pool.aggregated_stats();
  if (!save_dir.empty()) {
    save_symbolic_state(pool.cache(), save_dir);
  }
  return result;
}

std::string fixed3(double v) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(3) << v;
  return oss.str();
}

}  // namespace

int main() {
  const double scale = bench::scale_from_env();

  TrafficOptions traffic;
  traffic.patterns = 4;
  traffic.grid_base = static_cast<Index>(
      std::max(8.0, 12.0 * std::sqrt(scale)));
  traffic.requests = static_cast<int>(std::max(16.0, 48.0 * scale));
  traffic.max_rhs = 4;
  const ServiceTrace trace = build_service_trace(traffic);

  bench::print_header("solver-as-a-service throughput (reuse-heavy trace)");
  std::cout << "patterns=" << traffic.patterns << " (grid edges "
            << traffic.grid_base << ".." << traffic.grid_base + 6
            << "), requests=" << traffic.requests
            << ", rhs columns=" << trace.total_rhs() << "\n";

  const int workers = static_cast<int>(default_thread_count());
  SolverPoolOptions cold_options;
  cold_options.workers = workers;
  cold_options.use_cache = false;
  SolverPoolOptions cached_options;
  cached_options.workers = workers;
  const ScenarioResult cold = run_scenario("cold-analyze", trace, cold_options);
  const ScenarioResult cached =
      run_scenario("symbolic-cache", trace, cached_options);

  // Churn: cap the symbolic cache below the pattern count so LRU eviction
  // is constantly in play while the trace keeps rotating patterns.
  SolverPoolOptions churn_options = cached_options;
  churn_options.cache_entries =
      static_cast<std::size_t>(std::max(1, traffic.patterns / 2));
  const ScenarioResult churn =
      run_scenario("churn-evict", trace, churn_options);

  // Warm restart: persist the cached pool's symbolic state, then replay
  // the trace in a fresh pool that loads it — zero symbolic misses.
  const std::string state_dir = bench::output_dir() + "/solver_service_state";
  std::filesystem::remove_all(state_dir);
  const ScenarioResult first_boot = run_scenario(
      "first-boot", trace, cached_options, /*load_dir=*/"", state_dir);
  const ScenarioResult warm = run_scenario("warm-restart", trace,
                                           cached_options, state_dir);

  const ScenarioResult* scenarios[] = {&cold, &cached, &churn, &first_boot,
                                       &warm};
  TextTable table({"scenario", "solves/sec", "p50 ms", "p99 ms", "hits",
                   "misses", "evict", "analyze s", "factorize s", "solve s"});
  for (const ScenarioResult* r : scenarios) {
    table.add_row({r->name, fixed3(r->solves_per_sec), fixed3(r->p50_ms),
                   fixed3(r->p99_ms), std::to_string(r->cache_hits),
                   std::to_string(r->cache_misses),
                   std::to_string(r->cache_evictions),
                   fixed3(r->totals.analyze_seconds),
                   fixed3(r->totals.factorize_seconds),
                   fixed3(r->totals.solve_seconds)});
  }
  std::cout << table.to_string();
  const double speedup = cold.solves_per_sec > 0.0
                             ? cached.solves_per_sec / cold.solves_per_sec
                             : 0.0;
  std::cout << "cached vs cold speedup: " << fixed3(speedup) << "x\n";
  std::cout << "warm restart symbolic misses: " << warm.cache_misses
            << " (cold boot paid " << first_boot.cache_misses << ")\n";

  CsvWriter csv(bench::output_dir() + "/solver_service.csv",
                {"scenario", "patterns", "requests", "rhs_columns", "workers",
                 "wall_seconds", "solves_per_sec", "p50_ms", "p99_ms",
                 "cache_hits", "cache_misses", "cache_evictions",
                 "factorizations", "rhs_solved", "analyze_seconds",
                 "factorize_seconds", "solve_seconds"});
  for (const ScenarioResult* r : scenarios) {
    csv.write_row(
        {r->name, CsvWriter::cell(static_cast<long long>(traffic.patterns)),
         CsvWriter::cell(r->requests), CsvWriter::cell(r->rhs_columns),
         CsvWriter::cell(static_cast<long long>(workers)),
         CsvWriter::cell(r->wall_seconds), CsvWriter::cell(r->solves_per_sec),
         CsvWriter::cell(r->p50_ms), CsvWriter::cell(r->p99_ms),
         CsvWriter::cell(r->cache_hits), CsvWriter::cell(r->cache_misses),
         CsvWriter::cell(r->cache_evictions),
         CsvWriter::cell(static_cast<long long>(r->totals.factorizations)),
         CsvWriter::cell(static_cast<long long>(r->totals.rhs_solved)),
         CsvWriter::cell(r->totals.analyze_seconds),
         CsvWriter::cell(r->totals.factorize_seconds),
         CsvWriter::cell(r->totals.solve_seconds)});
  }
  std::cout << "data: " << csv.path() << "\n";
  return 0;
}
