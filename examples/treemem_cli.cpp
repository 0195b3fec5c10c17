// treemem_cli — command-line front end for the library, built on the
// treemem::Solver facade.
//
// Usage:
//   treemem_cli plan <matrix.mtx> [--order mindeg|nd|rcm|natural]
//                    [--relax R] [--memory M]
//       Reads a Matrix Market file, runs the facade's analyze phase and
//       prints the MinMemory analysis; with --memory it also surveys the
//       out-of-core I/O options.
//
//   treemem_cli solve <matrix.mtx> [--order mindeg|nd|rcm|natural]
//                     [--relax R] [--memory M]
//                     [--traversal auto|postorder|liu|minmem]
//                     [--admission greedy|lookahead] [--workers W]
//                         (--admission and --workers: solve only)
//                     [--rhs K] [--seed S] [--synthetic] [--csv stats.csv]
//                     [--trace out.json]
//       The full pipeline: analyze -> plan -> factorize -> solve with K
//       right-hand sides, printing the per-phase SolverStats and optionally
//       appending them to a CSV (the bench-smoke artifact format). The
//       file's own numeric values are factorized; --synthetic (or a
//       pattern-field file, which carries no values) substitutes the seeded
//       deterministic SPD value set instead. --trace records the run's
//       scheduler timeline as Chrome trace_event JSON (load in Perfetto or
//       chrome://tracing); TREEMEM_TRACE=out.json does the same without
//       the flag.
//
//   treemem_cli serve <trace.txt> [solve flags] [--pool-workers W]
//                     [--repeat R] [--cache-entries N] [--cache-bytes B]
//                     [--state-dir DIR] [--csv stats.csv] [--trace out.json]
//                     [--metrics-out FILE]
//       Solver-as-a-service replay: each trace line is
//           <matrix.mtx> <value-seed> <num-rhs>
//       (# comments and blank lines skipped; value-seed 0 uses the file's
//       own values, anything else seeds synthetic SPD values on the file's
//       pattern). Requests stream through a SolverPool sharing one
//       SymbolicCache, so repeated patterns skip analyze+plan; --repeat
//       replays the whole trace R times. Every job runs the serial engine
//       on one pool worker, so the solve-only --admission and --workers
//       are rejected here. Prints solves/sec and latency percentiles
//       (submit to result, queue wait included). --cache-entries/
//       --cache-bytes cap the symbolic cache (LRU eviction; 0 =
//       unbounded), and --state-dir DIR persists the symbolic cache
//       across runs: state is loaded before the replay (a warm restart —
//       0 symbolic misses on a repeated trace) and saved after.
//       --metrics-out FILE writes the service's Prometheus-style metrics
//       exposition (solve-latency histogram, cache and lease counters)
//       after the replay; --trace records the timeline like `solve`.
//
//   treemem_cli tree <tree.txt> [--memory M]
//       The same MinMemory analysis for a task tree in the treemem text
//       format (no numeric phases — trees carry no values).
//
//   treemem_cli gen grid2d <nx> <ny> <out.mtx> [--values S]
//       Writes a generated matrix for experimentation: the bare pattern by
//       default, or — with --values — a real symmetric file carrying the
//       seeded SPD value set (what `solve` factorizes without --synthetic).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <future>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "treemem.hpp"

using namespace treemem;

namespace {

int usage() {
  std::cerr
      << "usage:\n"
      << "  treemem_cli plan <matrix.mtx> [--order mindeg|nd|rcm|natural]"
         " [--relax R] [--memory M]\n"
      << "  treemem_cli solve <matrix.mtx> [--order mindeg|nd|rcm|natural]"
         " [--relax R] [--memory M]\n"
      << "                    [--traversal auto|postorder|liu|minmem]\n"
      << "                    [--admission greedy|lookahead] [--workers W]"
         "  (solve only)\n"
      << "                    [--rhs K] [--seed S] [--synthetic]"
         " [--csv stats.csv] [--trace out.json]\n"
      << "  treemem_cli serve <trace.txt> [solve flags but --admission/"
         "--workers] [--pool-workers W]\n"
      << "                    [--repeat R] [--cache-entries N]"
         " [--cache-bytes B] [--state-dir DIR] [--csv stats.csv]\n"
      << "                    [--trace out.json] [--metrics-out FILE]\n"
      << "      trace line: <matrix.mtx> <value-seed> <num-rhs>"
         " (seed 0 = the file's own values)\n"
      << "  treemem_cli tree <tree.txt> [--memory M]\n"
      << "  treemem_cli gen grid2d <nx> <ny> <out.mtx> [--values S]\n";
  return 2;
}

/// The `plan`/`tree` analysis table: MinMemory peaks and, under a budget,
/// the out-of-core options — the low-level survey the facade's plan phase
/// chooses from.
void analyze_tree(const Tree& tree, std::optional<Weight> memory) {
  const TraversalResult po = best_postorder(tree);
  const MinMemResult opt = minmem_optimal(tree);
  TM_CHECK(liu_optimal_peak(tree) == opt.peak, "optimal algorithms disagree");

  TextTable table({"quantity", "value"});
  const TreeStats stats = compute_stats(tree);
  table.add_row({"tree nodes", std::to_string(stats.nodes)});
  table.add_row({"tree height", std::to_string(stats.height)});
  table.add_row({"max MemReq (hard floor)", std::to_string(tree.max_mem_req())});
  table.add_row({"best postorder memory", std::to_string(po.peak)});
  table.add_row({"optimal memory (MinMem)", std::to_string(opt.peak)});
  std::cout << table.to_string();

  if (memory) {
    std::cout << "\nout-of-core plan for memory budget " << *memory << ":\n";
    if (*memory >= opt.peak) {
      std::cout << "  budget covers the in-core optimum: no I/O needed.\n";
      return;
    }
    TextTable io_table({"traversal + policy", "I/O volume", "files written"});
    const struct {
      const char* name;
      const Traversal* order;
    } traversals[] = {{"PostOrder", &po.order}, {"MinMem", &opt.order}};
    for (const auto& t : traversals) {
      for (const EvictionPolicy policy :
           {EvictionPolicy::kFirstFit, EvictionPolicy::kLsnf}) {
        const MinIoResult res =
            minio_heuristic(tree, *t.order, *memory, policy);
        if (!res.feasible) {
          io_table.add_row({std::string(t.name) + " + " + to_string(policy),
                            "infeasible (M < max MemReq)", "-"});
          continue;
        }
        io_table.add_row({std::string(t.name) + " + " + to_string(policy),
                          std::to_string(res.io_volume),
                          std::to_string(res.files_written)});
      }
    }
    std::cout << io_table.to_string();
  }
}

struct CliOptions {
  std::string order_name = "mindeg";
  Index relax = 4;
  std::optional<Weight> memory;
  std::string traversal_name = "auto";
  std::string admission_name = "greedy";
  int workers = 0;
  bool solve_only_flags = false;  ///< --admission or --workers was given
  int rhs = 1;
  std::uint64_t seed = 2011;
  bool synthetic = false;
  int pool_workers = 0;
  int repeat = 1;
  std::size_t cache_entries = 0;
  std::size_t cache_bytes = 0;
  std::string state_dir;
  std::string csv_path;
  std::string trace_path;    ///< Chrome trace JSON out (empty = env/off)
  std::string metrics_out;   ///< serve: metrics exposition file (empty = off)
};

std::optional<OrderingChoice> ordering_of(const std::string& name) {
  if (name == "mindeg") return OrderingChoice::kMinDegree;
  if (name == "nd") return OrderingChoice::kNestedDissection;
  if (name == "rcm") return OrderingChoice::kRcm;
  if (name == "natural") return OrderingChoice::kNatural;
  return std::nullopt;
}

std::optional<TraversalPolicy> traversal_of(const std::string& name) {
  if (name == "auto") return TraversalPolicy::kAuto;
  if (name == "postorder") return TraversalPolicy::kPostorder;
  if (name == "liu") return TraversalPolicy::kLiu;
  if (name == "minmem") return TraversalPolicy::kMinMem;
  return std::nullopt;
}

/// Throws treemem::Error on anything but the two policies — including the
/// retired `reservation` — so a stale script fails loudly, naming the value.
AdmissionPolicy admission_of(const std::string& name) {
  if (name == "greedy") return AdmissionPolicy::kGreedy;
  if (name == "lookahead") return AdmissionPolicy::kLookahead;
  TM_CHECK(false, "--admission: unknown admission policy '"
                      << name << "' (expected greedy | lookahead)");
  return AdmissionPolicy::kGreedy;  // unreachable
}

std::string seconds(double s) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(4) << s;
  return oss.str();
}

std::optional<SolverOptions> solver_options_of(const CliOptions& cli) {
  const auto ordering = ordering_of(cli.order_name);
  const auto traversal = traversal_of(cli.traversal_name);
  const AdmissionPolicy admission = admission_of(cli.admission_name);
  if (!ordering || !traversal) {
    return std::nullopt;
  }
  SolverOptions options;
  options.analyze.ordering = *ordering;
  options.analyze.relax = cli.relax;
  options.plan.policy = *traversal;
  if (cli.memory) {
    options.plan.memory_budget = *cli.memory;
  }
  options.factorize.workers = cli.workers;
  options.factorize.admission = admission;
  return options;
}

int run_solve(const std::string& path, const CliOptions& cli) {
  const auto options = solver_options_of(cli);
  if (!options || cli.rhs < 1) {
    return usage();
  }
  // Record the whole pipeline; the JSON is written when the session ends.
  obs::TraceSession trace(cli.trace_path);

  // Factorize the file's own values; fall back to the seeded synthetic SPD
  // set when asked to (--synthetic) or when the file is pattern-only and
  // has no values to offer.
  MatrixMarketData data = read_matrix_market_data_file(path);
  const bool synthetic = cli.synthetic || !data.has_values();
  SymmetricMatrix matrix;
  if (synthetic) {
    if (!cli.synthetic) {
      std::cout << "note: " << path
                << " is pattern-only; factorizing seeded synthetic SPD "
                   "values (seed "
                << cli.seed << ")\n";
    }
    matrix = make_spd_matrix(symmetrize(data.pattern), cli.seed);
  } else {
    matrix = matrix_from_matrix_market(std::move(data));
  }
  const SparsePattern& a = matrix.pattern();

  Solver solver(*options);
  solver.analyze(a).plan().factorize(matrix);

  // Seeded right-hand sides, solved in one multi-RHS call.
  std::vector<std::vector<double>> rhs(
      static_cast<std::size_t>(cli.rhs),
      std::vector<double>(static_cast<std::size_t>(a.cols())));
  Prng rhs_prng(cli.seed * 7919 + 17);
  for (auto& column : rhs) {
    for (double& v : column) {
      v = 2.0 * rhs_prng.uniform_real() - 1.0;
    }
  }
  const std::vector<std::vector<double>> x = solver.solve(rhs);

  // Max relative residual across the right-hand sides, on the original
  // (unpermuted) system.
  double residual = 0.0;
  for (std::size_t c = 0; c < rhs.size(); ++c) {
    residual = std::max(residual, relative_residual(matrix, x[c], rhs[c]));
  }

  const SolverStats stats = solver.stats();
  TextTable table({"phase", "result", "seconds"});
  table.add_row({"values",
                 synthetic ? "synthetic (seed " + std::to_string(cli.seed) + ")"
                           : "from file (" + std::to_string(a.nnz()) +
                                 " entries)",
                 "-"});
  table.add_row({"analyze",
                 "n=" + std::to_string(stats.n) + " nnz(L)=" +
                     std::to_string(stats.factor_nnz) + " supernodes=" +
                     std::to_string(stats.tree_nodes) + " ordering=" +
                     stats.ordering,
                 seconds(stats.analyze_seconds)});
  table.add_row({"plan",
                 stats.strategy + " peak=" +
                     std::to_string(stats.planned_peak_entries) +
                     " optimum=" + std::to_string(stats.in_core_optimum),
                 seconds(stats.plan_seconds)});
  table.add_row(
      {"factorize",
       stats.engine +
           (stats.admission.empty() ? "" : "/" + stats.admission) + " w=" +
           std::to_string(stats.workers) + " measured=" +
           std::to_string(stats.measured_peak_entries) + " modeled=" +
           std::to_string(stats.modeled_peak_entries) + " flops=" +
           std::to_string(stats.flops),
       seconds(stats.factorize_seconds)});
  std::ostringstream residual_text;
  residual_text << std::scientific << std::setprecision(2) << residual;
  table.add_row({"solve",
                 std::to_string(stats.rhs_solved) + " rhs, max residual " +
                     residual_text.str(),
                 seconds(stats.solve_seconds)});
  std::cout << table.to_string();

  if (!cli.csv_path.empty()) {
    CsvWriter csv(cli.csv_path,
                  {"matrix", "values", "n", "pattern_nnz", "factor_nnz",
                   "tree_nodes",
                   "ordering", "strategy", "memory_budget",
                   "planned_peak", "in_core_optimum", "planned_io_volume",
                   "engine", "workers", "flops", "measured_peak",
                   "modeled_peak", "rhs", "residual", "analyze_seconds",
                   "plan_seconds", "factorize_seconds", "solve_seconds"});
    csv.write_row(
        {path, synthetic ? "synthetic" : "file",
         CsvWriter::cell(static_cast<long long>(stats.n)),
         CsvWriter::cell(static_cast<long long>(stats.pattern_nnz)),
         CsvWriter::cell(static_cast<long long>(stats.factor_nnz)),
         CsvWriter::cell(static_cast<long long>(stats.tree_nodes)),
         stats.ordering, stats.strategy,
         stats.memory_budget == kInfiniteWeight
             ? std::string("inf")
             : std::to_string(stats.memory_budget),
         CsvWriter::cell(static_cast<long long>(stats.planned_peak_entries)),
         CsvWriter::cell(static_cast<long long>(stats.in_core_optimum)),
         CsvWriter::cell(static_cast<long long>(stats.planned_io_volume)),
         stats.engine,
         CsvWriter::cell(static_cast<long long>(stats.workers)),
         CsvWriter::cell(stats.flops),
         CsvWriter::cell(static_cast<long long>(stats.measured_peak_entries)),
         CsvWriter::cell(static_cast<long long>(stats.modeled_peak_entries)),
         CsvWriter::cell(static_cast<long long>(stats.rhs_solved)),
         CsvWriter::cell(residual), CsvWriter::cell(stats.analyze_seconds),
         CsvWriter::cell(stats.plan_seconds),
         CsvWriter::cell(stats.factorize_seconds),
         CsvWriter::cell(stats.solve_seconds)});
    std::cout << "stats: " << csv.path() << "\n";
  }
  return 0;
}

/// One parsed line of a serve trace: which matrix file, which value seed
/// (0 = the file's own values), how many right-hand sides.
struct TraceLine {
  std::string path;
  std::uint64_t seed = 0;
  int num_rhs = 1;
};

std::vector<TraceLine> read_trace(const std::string& path) {
  std::ifstream in(path);
  TM_CHECK(in.good(), "cannot open trace " << path);
  std::vector<TraceLine> lines;
  std::string text;
  int line_no = 0;
  while (std::getline(in, text)) {
    ++line_no;
    const std::size_t start = text.find_first_not_of(" \t\r");
    if (start == std::string::npos || text[start] == '#') {
      continue;
    }
    std::istringstream iss(text);
    TraceLine line;
    long long seed = 0;
    if (!(iss >> line.path >> seed >> line.num_rhs) || seed < 0 ||
        line.num_rhs < 1) {
      TM_CHECK(false, path << ":" << line_no
                           << ": expected '<matrix.mtx> <value-seed>"
                              " <num-rhs>', got '"
                           << text << "'");
    }
    line.seed = static_cast<std::uint64_t>(seed);
    lines.push_back(std::move(line));
  }
  TM_CHECK(!lines.empty(), "trace " << path << " has no requests");
  return lines;
}

int run_serve(const std::string& trace_path, const CliOptions& cli) {
  const auto options = solver_options_of(cli);
  if (!options || cli.repeat < 1 || cli.solve_only_flags) {
    return usage();
  }
  obs::TraceSession trace(cli.trace_path);
  const std::vector<TraceLine> lines = read_trace(trace_path);

  // Each matrix file is parsed once; repeats and duplicate lines reuse the
  // in-memory copy (the service analogue: tenants hold their own data).
  std::map<std::string, MatrixMarketData> files;
  for (const TraceLine& line : lines) {
    if (!files.count(line.path)) {
      files.emplace(line.path, read_matrix_market_data_file(line.path));
    }
  }
  const auto matrix_of = [&](const TraceLine& line) {
    const MatrixMarketData& data = files.at(line.path);
    if (line.seed == 0) {
      return matrix_from_matrix_market(data);  // copies: data is reused
    }
    return make_spd_matrix(symmetrize(data.pattern), line.seed);
  };

  SolverPoolOptions pool_options;
  pool_options.workers = cli.pool_workers;
  pool_options.solver = *options;
  pool_options.cache_entries = cli.cache_entries;
  pool_options.cache_bytes = cli.cache_bytes;
  SolverPool pool(pool_options);

  // Warm restart: seed the symbolic cache from a previous run's state
  // before the first request lands (a loaded pattern is a hit, not a
  // miss). Stale or mismatched files degrade to a cold build, silently.
  if (!cli.state_dir.empty()) {
    const SymbolicStoreReport loaded =
        load_symbolic_state(pool.cache(), cli.state_dir);
    std::cout << "state: loaded " << loaded.saved << " symbolic state(s)"
              << " from " << cli.state_dir;
    if (loaded.skipped_options + loaded.skipped_invalid > 0) {
      std::cout << " (skipped " << loaded.skipped_options
                << " option-mismatched, " << loaded.skipped_invalid
                << " invalid)";
    }
    std::cout << "\n";
  }

  Timer wall;
  std::vector<std::future<SolveOutcome>> futures;
  futures.reserve(lines.size() * static_cast<std::size_t>(cli.repeat));
  for (int rep = 0; rep < cli.repeat; ++rep) {
    for (const TraceLine& line : lines) {
      SolveRequest request;
      request.matrix = matrix_of(line);
      const std::size_t n = static_cast<std::size_t>(request.matrix.size());
      Prng rhs_prng(line.seed * 7919 + 17 +
                    static_cast<std::uint64_t>(rep) * 104729);
      request.rhs.assign(static_cast<std::size_t>(line.num_rhs),
                         std::vector<double>(n));
      for (auto& column : request.rhs) {
        for (double& v : column) {
          v = rhs_prng.uniform_real(-1.0, 1.0);
        }
      }
      futures.push_back(pool.submit(std::move(request)));
    }
  }

  long long rhs_columns = 0;
  for (std::future<SolveOutcome>& future : futures) {
    rhs_columns += static_cast<long long>(future.get().solutions.size());
  }
  const double wall_seconds = wall.elapsed_s();

  // Persist the symbolic cache for the next run's warm restart.
  if (!cli.state_dir.empty()) {
    const SymbolicStoreReport saved =
        save_symbolic_state(pool.cache(), cli.state_dir);
    std::cout << "state: saved " << saved.saved << " symbolic state(s) to "
              << cli.state_dir << "\n";
  }

  // Percentiles come from the pool's latency histogram (linear
  // interpolation inside the selected bucket) — the sorted-vector index
  // math this replaces rounded p99 onto the wrong sample at small counts.
  const obs::Histogram& latency = pool.solve_latency();
  const auto percentile = [&](double q) {
    return latency.quantile(q) * 1e3;  // ms
  };
  const double solves_per_sec =
      wall_seconds > 0.0 ? static_cast<double>(rhs_columns) / wall_seconds
                         : 0.0;
  const SymbolicCache::Stats cache = pool.cache_stats();
  const SolverStats totals = pool.aggregated_stats();

  TextTable table({"quantity", "value"});
  table.add_row({"requests", std::to_string(futures.size())});
  table.add_row({"rhs columns", std::to_string(rhs_columns)});
  table.add_row({"pool workers", std::to_string(pool.workers())});
  table.add_row({"wall seconds", seconds(wall_seconds)});
  table.add_row({"solves/sec", seconds(solves_per_sec)});
  table.add_row({"latency p50 (ms)", seconds(percentile(0.50))});
  table.add_row({"latency p99 (ms)", seconds(percentile(0.99))});
  table.add_row({"latency p99.9 (ms)", seconds(percentile(0.999))});
  table.add_row({"latency samples", std::to_string(latency.count())});
  table.add_row({"symbolic cache", std::to_string(cache.hits) + " hits / " +
                                       std::to_string(cache.misses) +
                                       " misses (" +
                                       std::to_string(cache.entries) +
                                       " patterns, " +
                                       std::to_string(cache.evictions) +
                                       " evicted)"});
  table.add_row({"factorizations", std::to_string(totals.factorizations)});
  table.add_row({"rhs solved", std::to_string(totals.rhs_solved)});
  std::cout << table.to_string();

  if (!cli.csv_path.empty()) {
    CsvWriter csv(cli.csv_path,
                  {"trace", "requests", "rhs_columns", "pool_workers",
                   "wall_seconds", "solves_per_sec", "p50_ms", "p99_ms",
                   "p999_ms", "latency_samples",
                   "cache_hits", "cache_misses", "cache_patterns",
                   "cache_evictions", "factorizations", "rhs_solved"});
    csv.write_row({trace_path,
                   CsvWriter::cell(static_cast<long long>(futures.size())),
                   CsvWriter::cell(rhs_columns),
                   CsvWriter::cell(static_cast<long long>(pool.workers())),
                   CsvWriter::cell(wall_seconds),
                   CsvWriter::cell(solves_per_sec),
                   CsvWriter::cell(percentile(0.50)),
                   CsvWriter::cell(percentile(0.99)),
                   CsvWriter::cell(percentile(0.999)),
                   CsvWriter::cell(latency.count()),
                   CsvWriter::cell(cache.hits), CsvWriter::cell(cache.misses),
                   CsvWriter::cell(static_cast<long long>(cache.entries)),
                   CsvWriter::cell(cache.evictions),
                   CsvWriter::cell(static_cast<long long>(
                       totals.factorizations)),
                   CsvWriter::cell(static_cast<long long>(totals.rhs_solved))});
    std::cout << "stats: " << csv.path() << "\n";
  }

  // Written while the pool is alive, so its exporter (latency histogram,
  // cache counters, solver totals) is part of the exposition.
  if (!cli.metrics_out.empty()) {
    std::ofstream out(cli.metrics_out);
    out << obs::dump_metrics();
    TM_CHECK(out.good(), "cannot write metrics to " << cli.metrics_out);
    std::cout << "metrics: " << cli.metrics_out << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    return usage();
  }
  const std::string command = argv[1];

  try {
    if (command == "gen") {
      const bool with_values =
          argc == 8 && std::strcmp(argv[6], "--values") == 0;
      if ((argc != 6 && !with_values) || std::strcmp(argv[2], "grid2d") != 0) {
        return usage();
      }
      const Index nx = static_cast<Index>(std::atoi(argv[3]));
      const Index ny = static_cast<Index>(std::atoi(argv[4]));
      if (with_values) {
        const std::uint64_t seed = static_cast<std::uint64_t>(parse_int_strict(
            argv[7], 0, std::numeric_limits<long long>::max() / 2,
            "--values"));
        write_matrix_market_file(
            argv[5], make_spd_matrix(gen::grid2d(nx, ny), seed), true);
        std::cout << "wrote " << argv[5] << " (" << nx * ny
                  << " rows, SPD values seed " << seed << ")\n";
      } else {
        write_matrix_market_file(argv[5], gen::grid2d(nx, ny), true);
        std::cout << "wrote " << argv[5] << " (" << nx * ny << " rows)\n";
      }
      return 0;
    }

    // Shared flag parsing for `plan`, `solve` and `tree`. Numeric values
    // go through the same strict parser as the TREEMEM_* env layer: a
    // malformed flag is an error naming the flag, never a silent zero.
    CliOptions cli;
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--order") == 0 && i + 1 < argc) {
        cli.order_name = argv[++i];
      } else if (std::strcmp(argv[i], "--relax") == 0 && i + 1 < argc) {
        cli.relax = static_cast<Index>(
            parse_int_strict(argv[++i], 0, 1 << 20, "--relax"));
      } else if (std::strcmp(argv[i], "--memory") == 0 && i + 1 < argc) {
        cli.memory = static_cast<Weight>(
            parse_int_strict(argv[++i], 1, kInfiniteWeight, "--memory"));
      } else if (std::strcmp(argv[i], "--traversal") == 0 && i + 1 < argc) {
        cli.traversal_name = argv[++i];
      } else if (std::strcmp(argv[i], "--admission") == 0 && i + 1 < argc) {
        cli.admission_name = argv[++i];
        cli.solve_only_flags = true;
      } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
        cli.workers = static_cast<int>(
            parse_int_strict(argv[++i], 0, 1024, "--workers"));
        cli.solve_only_flags = true;
      } else if (std::strcmp(argv[i], "--rhs") == 0 && i + 1 < argc) {
        cli.rhs =
            static_cast<int>(parse_int_strict(argv[++i], 1, 4096, "--rhs"));
      } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
        cli.seed = static_cast<std::uint64_t>(parse_int_strict(
            argv[++i], 0, std::numeric_limits<long long>::max() / 2,
            "--seed"));
      } else if (std::strcmp(argv[i], "--synthetic") == 0) {
        cli.synthetic = true;
      } else if (std::strcmp(argv[i], "--pool-workers") == 0 && i + 1 < argc) {
        cli.pool_workers = static_cast<int>(
            parse_int_strict(argv[++i], 0, 1024, "--pool-workers"));
      } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
        cli.repeat = static_cast<int>(
            parse_int_strict(argv[++i], 1, 1 << 20, "--repeat"));
      } else if (std::strcmp(argv[i], "--cache-entries") == 0 && i + 1 < argc) {
        cli.cache_entries = static_cast<std::size_t>(
            parse_int_strict(argv[++i], 0, 1 << 30, "--cache-entries"));
      } else if (std::strcmp(argv[i], "--cache-bytes") == 0 && i + 1 < argc) {
        cli.cache_bytes = static_cast<std::size_t>(parse_int_strict(
            argv[++i], 0, std::numeric_limits<long long>::max() / 2,
            "--cache-bytes"));
      } else if (std::strcmp(argv[i], "--state-dir") == 0 && i + 1 < argc) {
        cli.state_dir = argv[++i];
      } else if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
        cli.csv_path = argv[++i];
      } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
        cli.trace_path = argv[++i];
      } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
        cli.metrics_out = argv[++i];
      } else {
        return usage();
      }
    }

    if (command == "tree") {
      analyze_tree(load_tree(argv[2]), cli.memory);
      return 0;
    }
    if (command == "solve") {
      return run_solve(argv[2], cli);
    }
    if (command == "serve") {
      return run_serve(argv[2], cli);
    }
    if (command != "plan") {
      return usage();
    }

    const SparsePattern a = symmetrize(read_matrix_market_file(argv[2]));
    const auto ordering = ordering_of(cli.order_name);
    if (!ordering) {
      return usage();
    }
    std::cout << "matrix: n=" << a.cols() << " nnz=" << a.nnz()
              << " (symmetrized), ordering=" << cli.order_name
              << ", relax=" << cli.relax << "\n";
    AnalyzeOptions analyze;
    analyze.ordering = *ordering;
    analyze.relax = cli.relax;
    Solver solver;
    solver.analyze(a, analyze);
    analyze_tree(solver.assembly().tree, cli.memory);
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
