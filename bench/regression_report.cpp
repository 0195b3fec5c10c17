// regression_report — the machine-readable bench gate (BENCH_10.json).
//
// Emits one JSON report for CI to diff against the checked-in
// bench/baseline.json (bench/check_regression.py):
//
//   * per-instance stall counts per admission policy on the 10-instance
//     numeric corpus at the ROADMAP budget (1.5x the serial MinMem
//     optimum, floored at max MemReq), swept over w in {2, 4, 8} — the
//     greedy baseline stalls on the dense families, lookahead must stay at
//     zero;
//   * w = 4 simulated speedups per policy, plus the uncapped reference —
//     deterministic (simulator time), so the checker holds them to a
//     tight tolerance;
//   * the solver service's cached/cold solves-per-sec ratio on a small
//     mixed-traffic trace — wall-clock, hence noisy: the checker only
//     flags drops past 20% of baseline;
//   * the round-two service scenarios: symbolic-cache churn through an
//     eviction cap (single worker, so hit/miss/eviction counts are exact)
//     and a warm restart from a persisted state dir (the warm run must
//     report zero symbolic misses);
//   * the worker-pool microbench: a private 4-worker pool serves 64
//     WorkerPool::run rounds — its threads_spawned/leases_granted/
//     leases_denied/workers_leased counters are exact (gated exactly); the
//     per-round wall-clock is reported for the record;
//   * the tree x front scaling sweep: factor_parallel with the defaults
//     (leased kernel tiles + elastic crewing) at w in {1, 2, 4} on the two
//     largest corpus instances, min-of-3 (reported, not gated: the
//     instances factor in milliseconds), plus a root-front-dominated
//     instance at w = 4 with elastic crewing on vs off — the case where
//     idle tree-level workers get absorbed by the root front's trailing
//     updates;
//   * the tracing-overhead scenario: the largest corpus instance factorized
//     at w = 4 with the trace recorder off vs on (min-of-5, interleaved) —
//     the "tracing is cheap enough to leave instrumented" contract; the
//     checker hard-fails past 5% overhead, and the traced timeline is kept
//     as a per-run artifact next to the report.
//
// Unlike the other benches this report IGNORES TREEMEM_SCALE: the corpus
// is pinned at scale 1.0 so the numbers are comparable across runs and
// machines (the stall counts and simulated speedups are then exactly
// reproducible). TREEMEM_OUT still picks the output directory.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/minmem.hpp"
#include "multifrontal/numeric_parallel.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_sim.hpp"
#include "parallel/worker_pool.hpp"
#include "perf/corpus.hpp"
#include "perf/traffic.hpp"
#include "solver/solver_pool.hpp"
#include "solver/symbolic_store.hpp"
#include "sparse/generators.hpp"
#include "support/prng.hpp"
#include "support/timer.hpp"

namespace {

using namespace treemem;

std::string num(double v) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(4) << v;
  return oss.str();
}

/// One measured pass of `trace` through a SolverPool built from `options`,
/// optionally loading persisted symbolic state before the trace and saving
/// it after (the warm-restart scenario).
struct ServiceRun {
  double solves_per_sec = 0.0;
  SymbolicCache::Stats cache;
};

ServiceRun run_service(const ServiceTrace& trace,
                       const SolverPoolOptions& options,
                       const std::string& load_dir = "",
                       const std::string& save_dir = "") {
  SolverPool pool(options);
  if (!load_dir.empty()) {
    load_symbolic_state(pool.cache(), load_dir);
  }
  std::vector<SolveRequest> requests;
  requests.reserve(trace.requests.size());
  for (const ServiceRequest& request : trace.requests) {
    requests.push_back(materialize_request(trace, request));
  }
  Timer wall;
  long long rhs_columns = 0;
  std::vector<std::future<SolveOutcome>> futures;
  futures.reserve(requests.size());
  for (SolveRequest& request : requests) {
    futures.push_back(pool.submit(std::move(request)));
  }
  for (std::future<SolveOutcome>& future : futures) {
    rhs_columns += static_cast<long long>(future.get().solutions.size());
  }
  const double seconds = wall.elapsed_s();
  ServiceRun run;
  run.solves_per_sec =
      seconds > 0.0 ? static_cast<double>(rhs_columns) / seconds : 0.0;
  run.cache = pool.cache_stats();
  if (!save_dir.empty()) {
    save_symbolic_state(pool.cache(), save_dir);
  }
  return run;
}

/// Cold or cached solves/sec of the service layer on `trace`.
double service_solves_per_sec(const ServiceTrace& trace, bool use_cache) {
  SolverPoolOptions options;
  options.workers = 2;
  options.use_cache = use_cache;
  return run_service(trace, options).solves_per_sec;
}

int run() {
  bench::print_header(
      "regression report — admission stalls, simulated speedups, service "
      "throughput, worker-pool counters, scaling sweep, tracing overhead "
      "(BENCH_10.json)");

  // Scale pinned: this report must mean the same thing on every machine.
  const auto instances = build_numeric_instances(CorpusOptions{}, 5);
  constexpr AdmissionPolicy kPolicies[] = {AdmissionPolicy::kGreedy,
                                           AdmissionPolicy::kLookahead};
  constexpr int kPolicyCount = static_cast<int>(std::size(kPolicies));
  constexpr int kStallWorkers[] = {2, 4, 8};

  std::ostringstream json;
  json << "{\n";
  json << "  \"schema\": \"treemem-bench-10\",\n";
  json << "  \"budget_rule\": \"max(1.5*minmem_peak, max_mem_req)\",\n";
  json << "  \"speedup_workers\": 4,\n";
  json << "  \"instances\": [\n";

  int total_stalls[kPolicyCount] = {0, 0};
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const NumericInstance& instance = instances[i];
    const Tree& tree = instance.assembly.tree;
    const MinMemResult mm = minmem_optimal(tree);
    const Weight budget = std::max(mm.peak + mm.peak / 2, tree.max_mem_req());
    const Traversal witness = reverse_traversal(mm.order);

    ParallelOptions free_options;
    free_options.workers = 4;
    const auto free_run = simulate_parallel_traversal(tree, free_options);

    json << "    {\n";
    json << "      \"name\": \"" << instance.name << "\",\n";
    json << "      \"budget\": " << budget << ",\n";
    json << "      \"free_speedup\": " << num(free_run.speedup) << ",\n";
    json << "      \"free_peak\": " << free_run.peak_memory << ",\n";
    json << "      \"policies\": {\n";
    for (int p = 0; p < kPolicyCount; ++p) {
      const AdmissionPolicy policy = kPolicies[p];
      int stalls = 0;
      for (const int workers : kStallWorkers) {
        ParallelOptions options;
        options.workers = workers;
        options.memory_budget = budget;
        options.admission = policy;
        options.serial_witness = witness;
        stalls += !simulate_parallel_traversal(tree, options).feasible;
      }
      total_stalls[p] += stalls;
      ParallelOptions options;
      options.workers = 4;
      options.memory_budget = budget;
      options.admission = policy;
      options.serial_witness = witness;
      const auto run = simulate_parallel_traversal(tree, options);
      json << "        \"" << to_string(policy) << "\": {\"stalls\": "
           << stalls << ", \"speedup\": "
           << num(run.feasible ? run.speedup : 0.0) << ", \"peak\": "
           << run.peak_memory << "}";
      json << (p + 1 < kPolicyCount ? ",\n" : "\n");
      std::cout << instance.name << " " << to_string(policy) << ": stalls="
                << stalls << " w4_speedup="
                << num(run.feasible ? run.speedup : 0.0) << "\n";
    }
    json << "      }\n";
    json << "    }" << (i + 1 < instances.size() ? ",\n" : "\n");
  }
  json << "  ],\n";
  json << "  \"totals\": {\"greedy_stalls\": " << total_stalls[0]
       << ", \"lookahead_stalls\": " << total_stalls[1] << "},\n";

  // Service throughput: small fixed trace (independent of TREEMEM_SCALE).
  TrafficOptions traffic;
  traffic.patterns = 3;
  traffic.grid_base = 12;
  traffic.requests = 24;
  traffic.max_rhs = 4;
  const ServiceTrace trace = build_service_trace(traffic);
  const double cold = service_solves_per_sec(trace, /*use_cache=*/false);
  const double cached = service_solves_per_sec(trace, /*use_cache=*/true);
  const double ratio = cold > 0.0 ? cached / cold : 0.0;
  json << "  \"service\": {\"cold_solves_per_sec\": " << num(cold)
       << ", \"cached_solves_per_sec\": " << num(cached)
       << ", \"cached_over_cold\": " << num(ratio) << "},\n";

  // --- Round-two service scenarios ---------------------------------------
  // Churn: five patterns rotating through a two-entry symbolic cache on a
  // single worker — the trace is seeded and the worker serializes, so the
  // hit/miss/eviction counts are exactly reproducible and gated exactly.
  TrafficOptions churn_traffic;
  churn_traffic.patterns = 5;
  churn_traffic.grid_base = 10;
  churn_traffic.requests = 20;
  churn_traffic.max_rhs = 2;
  const ServiceTrace churn_trace = build_service_trace(churn_traffic);
  SolverPoolOptions churn_options;
  churn_options.workers = 1;
  churn_options.cache_entries = 2;
  const ServiceRun churn = run_service(churn_trace, churn_options);
  json << "  \"service_round2\": {\n";
  json << "    \"churn\": {\"cap\": 2, \"patterns\": "
       << churn_traffic.patterns << ", \"hits\": " << churn.cache.hits
       << ", \"misses\": " << churn.cache.misses
       << ", \"evictions\": " << churn.cache.evictions
       << ", \"entries\": " << churn.cache.entries << "},\n";
  std::cout << "churn: hits=" << churn.cache.hits << " misses="
            << churn.cache.misses << " evictions=" << churn.cache.evictions
            << " entries=" << churn.cache.entries << " (cap 2)\n";

  // Warm restart: run the trace once saving symbolic state, then replay it
  // in a fresh pool that loads the state dir — the warm run must report
  // zero symbolic misses (the persistence contract; deterministic).
  const std::string state_dir = bench::output_dir() + "/warm_state";
  std::filesystem::remove_all(state_dir);
  SolverPoolOptions serve_options;
  serve_options.workers = 2;
  const ServiceRun first_boot =
      run_service(trace, serve_options, /*load_dir=*/"", state_dir);
  const ServiceRun warm_boot = run_service(trace, serve_options, state_dir);
  const double warm_ratio =
      first_boot.solves_per_sec > 0.0
          ? warm_boot.solves_per_sec / first_boot.solves_per_sec
          : 0.0;
  json << "    \"warm_restart\": {\"cold_misses\": " << first_boot.cache.misses
       << ", \"warm_misses\": " << warm_boot.cache.misses
       << ", \"warm_over_cold\": " << num(warm_ratio) << "}\n";
  std::cout << "warm restart: cold_misses=" << first_boot.cache.misses
            << " warm_misses=" << warm_boot.cache.misses
            << " warm/cold=" << num(warm_ratio) << "\n";

  json << "  },\n";

  // --- Worker-pool microbench --------------------------------------------
  // A private pool keeps the counters machine-independent: 64 claim/run
  // rounds against a 4-worker pool spawn exactly 4 threads, ever. The spin
  // between rounds waits for the previous crew to park so every round's
  // run() claims the 3 helpers it asks for — that makes leases_granted/
  // leases_denied/workers_leased exact, and the checker gates the counters
  // exactly. The per-round wall-clock is reported for the record.
  {
    constexpr unsigned kPoolSize = 4;
    constexpr int kRounds = 64;
    constexpr std::size_t kTiles = 8;
    std::atomic<long long> sink{0};
    const auto tiny_body = [&](std::size_t i) {
      sink.fetch_add(static_cast<long long>(i) + 1,
                     std::memory_order_relaxed);
    };
    WorkerPool microbench_pool(kPoolSize);
    Timer leased_wall;
    for (int round = 0; round < kRounds; ++round) {
      while (microbench_pool.idle_workers() != kPoolSize) {
        std::this_thread::yield();
      }
      microbench_pool.run(kPoolSize - 1, kTiles, tiny_body);
    }
    const double leased_us = leased_wall.elapsed_s() * 1e6 / kRounds;
    const WorkerPoolStats pool_stats = microbench_pool.stats();
    json << "  \"worker_pool\": {\"pool_size\": " << kPoolSize
         << ", \"rounds\": " << kRounds
         << ", \"threads_spawned\": " << pool_stats.threads_spawned
         << ", \"leases_granted\": " << pool_stats.leases_granted
         << ", \"leases_denied\": " << pool_stats.leases_denied
         << ", \"workers_leased\": " << pool_stats.workers_leased
         << ", \"leased_round_us\": " << num(leased_us) << "},\n";
    std::cout << "worker pool: spawned=" << pool_stats.threads_spawned
              << " granted=" << pool_stats.leases_granted
              << " leased_round=" << num(leased_us) << "us\n";
  }

  // --- Tree x front scaling sweep ----------------------------------------
  // The defaults (leased kernel tiles + elastic crewing) at w in {1, 2, 4}
  // on the two largest corpus instances, min-of-3. These instances factor
  // in milliseconds, so the sweep is reported for the record, not gated.
  json << "  \"scaling\": {\n";
  json << "    \"instances\": [\n";
  const std::size_t first_scaled =
      instances.size() > 2 ? instances.size() - 2 : 0;
  constexpr int kScaleWorkers[] = {1, 2, 4};
  for (std::size_t i = first_scaled; i < instances.size(); ++i) {
    const NumericInstance& instance = instances[i];
    json << "      {\"name\": \"" << instance.name << "\", \"workers\": {";
    bool first_cell = true;
    for (const int workers : kScaleWorkers) {
      ParallelFactorOptions leased;
      leased.workers = workers;
      double leased_s = std::numeric_limits<double>::max();
      for (int rep = 0; rep < 3; ++rep) {
        leased_s = std::min(
            leased_s,
            factor_parallel(instance.matrix, instance.assembly, leased)
                .factor_seconds);
      }
      json << (first_cell ? "" : ", ") << "\"w" << workers
           << "\": {\"leased_s\": " << num(leased_s) << "}";
      first_cell = false;
      std::cout << "scaling " << instance.name << " w=" << workers
                << ": leased=" << num(leased_s * 1e3) << "ms\n";
    }
    json << "}}" << (i + 1 < instances.size() ? ",\n" : "\n");
  }
  json << "    ],\n";

  // Root-front-dominated case: heavy amalgamation concentrates the flops
  // in a few large fronts, so most of the tree-level crew has nothing to
  // do — the shape where elastic crewing pays, because idle workers return
  // to the pool and the root front's trailing-update leases absorb them.
  // With the crew held (lease_idle_workers=false) those leases find nobody
  // idle and run inline; the attempt count (granted + denied) is schedule-
  // determined and gated exactly, the granted/denied split is timing-
  // dependent and reported for the record. The runs use a private pool
  // and start only once all of its workers are parked, so no stint left
  // over from an earlier run (or the sweep above) occupies them: a w = 4
  // run recruits at most 3 of the 4, and an elastic run's root-front
  // leases always find one idle (the >= 1 grant the checker gates).
  {
    constexpr unsigned kPoolSize = 4;
    WorkerPool root_pool(kPoolSize);
    const auto wait_idle = [&] {
      while (root_pool.idle_workers() != kPoolSize) {
        std::this_thread::yield();
      }
    };
    Prng prng(9001);
    const SparsePattern raw =
        symmetrize(gen::random_symmetric(160, 8.0, prng));
    const NumericInstance root_inst = build_numeric_instance(
        {"root-front", raw}, OrderingChoice::kMinDegree, 8, 9001);
    ParallelFactorOptions elastic;
    elastic.workers = 4;
    elastic.kernel.block_size = 8;          // several tiles per root panel
    elastic.kernel.min_parallel_volume = 0;  // every panel leases
    elastic.kernel.pool = &root_pool;
    ParallelFactorOptions held = elastic;
    held.lease_idle_workers = false;
    double elastic_s = std::numeric_limits<double>::max();
    double held_s = std::numeric_limits<double>::max();
    long long attempts = 0;
    long long granted = 0;
    for (int rep = 0; rep < 3; ++rep) {
      wait_idle();
      // The pool is the one lease record: the elastic run's leases are its
      // stats delta (every lease is taken inside a task body, and the
      // executor returns only after its last body).
      const WorkerPoolStats before = root_pool.stats();
      const ParallelFactorResult e =
          factor_parallel(root_inst.matrix, root_inst.assembly, elastic);
      const WorkerPoolStats after = root_pool.stats();
      wait_idle();
      const ParallelFactorResult h =
          factor_parallel(root_inst.matrix, root_inst.assembly, held);
      if (e.factor_seconds < elastic_s) {
        elastic_s = e.factor_seconds;
        granted = after.leases_granted - before.leases_granted;
        attempts = granted + after.leases_denied - before.leases_denied;
      }
      held_s = std::min(held_s, h.factor_seconds);
    }
    const double root_ratio = elastic_s > 0.0 ? held_s / elastic_s : 0.0;
    json << "    \"root_front\": {\"elastic_s\": " << num(elastic_s)
         << ", \"held_s\": " << num(held_s)
         << ", \"ratio\": " << num(root_ratio)
         << ", \"lease_attempts\": " << attempts
         << ", \"leases_granted\": " << granted << "}\n";
    std::cout << "root front: elastic=" << num(elastic_s * 1e3)
              << "ms held=" << num(held_s * 1e3) << "ms ratio="
              << num(root_ratio) << " lease_attempts=" << attempts
              << " granted=" << granted << "\n";
  }
  json << "  },\n";

  // --- Tracing overhead --------------------------------------------------
  // The observability contract: instrumentation may sit on the per-front
  // and per-lease hot paths permanently because a traced run costs at most
  // 5% over an untraced one. A traced run records one span per front
  // (process_front) and per executor task, the admission and memory
  // track, and the pool's lease grant/deny instants; the dense kernel
  // records nothing of its own. Largest corpus instance, w = 4, min-of-5
  // interleaved (traced and untraced reps alternate so machine load hits
  // both equally); the checker hard-fails past the ceiling. The recorder's
  // retained/dropped counts prove tracing actually captured the run, and
  // the timeline itself is written next to the report for Perfetto.
  {
    const NumericInstance& instance = instances.back();
    ParallelFactorOptions traced_options;
    traced_options.workers = 4;
    obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
    double untraced_s = std::numeric_limits<double>::max();
    double traced_s = std::numeric_limits<double>::max();
    for (int rep = 0; rep < 5; ++rep) {
      const ParallelFactorResult off =
          factor_parallel(instance.matrix, instance.assembly, traced_options);
      untraced_s = std::min(untraced_s, off.factor_seconds);
      recorder.start();
      const ParallelFactorResult on =
          factor_parallel(instance.matrix, instance.assembly, traced_options);
      recorder.stop();
      traced_s = std::min(traced_s, on.factor_seconds);
    }
    const obs::TraceRecorder::Stats trace_stats = recorder.stats();
    const std::string trace_path = bench::output_dir() + "/trace_overhead.json";
    recorder.write_chrome_json(trace_path);
    recorder.clear();
    const double overhead =
        untraced_s > 0.0 ? traced_s / untraced_s : 0.0;
    json << "  \"tracing\": {\"instance\": \"" << instance.name
         << "\", \"workers\": " << traced_options.workers
         << ", \"untraced_s\": " << num(untraced_s)
         << ", \"traced_s\": " << num(traced_s)
         << ", \"overhead_ratio\": " << num(overhead)
         << ", \"events_retained\": " << trace_stats.retained
         << ", \"events_dropped\": " << trace_stats.dropped << "}\n";
    std::cout << "tracing " << instance.name << " w=4: untraced="
              << num(untraced_s * 1e3) << "ms traced=" << num(traced_s * 1e3)
              << "ms overhead=" << num(overhead) << "x events="
              << trace_stats.retained << " (+" << trace_stats.dropped
              << " dropped); timeline: " << trace_path << "\n";
  }
  json << "}\n";

  const std::string path = bench::output_dir() + "/BENCH_10.json";
  std::ofstream out(path);
  out << json.str();
  out.close();
  std::cout << "\ntotals: greedy=" << total_stalls[0] << " lookahead="
            << total_stalls[1] << " stalls; cached/cold=" << num(ratio)
            << "\n";
  std::cout << "report: " << path << "\n";
  return 0;
}

}  // namespace

int main() { return run(); }
