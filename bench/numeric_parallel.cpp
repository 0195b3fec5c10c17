// Extension bench: the end-to-end parallel numeric pipeline — corpus
// matrix → treemem::Solver facade (analyze → plan → factorize) — swept
// across worker counts and two front-kernel settings
// (dense/front_kernel.hpp). Besides the corpus slice it runs one 2-D
// nested-dissection grid, the tiny-front regime where the executor runs
// whole subtrees as single tasks; every row reports the executor's task
// count next to the supernode count.
//
// Each instance is analyzed ONCE (ordering, assembly tree, symbolic) and
// then factorized many times through the facade's reuse path: serially
// (the scalar reference along the planned best postorder), and with the
// threaded engine at w ∈ {1, 2, 4, 8} under the scalar reference settings
// ({block 1, one worker}: 1-wide panels, no leasing) and the default
// kernel (16-wide panels, trailing updates on leased tiles) — free and (at
// w = 4, default kernel) re-planned with the modeled budget capped at 1.5×
// the w = 1 modeled peak. Reported per run: measured factor seconds,
// speedup over the serial engine, the engine's *measured* peak live
// entries and the *modeled* Eq. 1 peak from SolverStats — the same
// quantity in the same units, machine vs. model. Stalled capped runs are
// reported as such (the greedy scheduler's memory deadlock, surfaced by
// allow_serial_fallback = false, not an error).
//
// Exactness is enforced on every feasible run: every run must reproduce
// the serial factor bit for bit. Intra-front workers follow
// TREEMEM_THREADS.
#include <algorithm>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "multifrontal/numeric.hpp"
#include "obs/trace.hpp"
#include "solver/solver.hpp"
#include "sparse/generators.hpp"
#include "support/csv.hpp"
#include "support/text_table.hpp"

namespace {

using namespace treemem;

std::string fmt(double v, int precision = 2) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(precision) << v;
  return oss.str();
}

int run(const std::string& trace_path) {
  // Records the whole sweep (tree-level lanes, panel/trailing spans, pool
  // lease instants) when --trace or TREEMEM_TRACE asks for it.
  obs::TraceSession trace(trace_path);
  CorpusOptions options = bench::corpus_options();
  // Numeric factorization is dense-kernel heavy; a moderate slice of the
  // corpus keeps the smoke run in seconds while exercising real fronts.
  // The facade re-runs the same ordering/relax pipeline internally, so
  // instances match the old hand-stitched build_numeric_instances ones.
  // Instances: the corpus slice under both orderings, plus one 2-D grid
  // under nested dissection — thousands of tiny fronts.
  std::vector<std::pair<CorpusMatrix, OrderingChoice>> instances;
  for (const CorpusMatrix& source :
       smallest_corpus_matrices(options, /*count=*/5)) {
    instances.emplace_back(source, OrderingChoice::kMinDegree);
    instances.emplace_back(source, OrderingChoice::kNestedDissection);
  }
  const Index grid_side = std::max<Index>(
      32, static_cast<Index>(128 * std::sqrt(options.scale)));
  instances.emplace_back(
      CorpusMatrix{"grid2d-" + std::to_string(grid_side),
                   gen::grid2d(grid_side, grid_side)},
      OrderingChoice::kNestedDissection);
  bench::print_header(
      "Extension — parallel numeric multifrontal Cholesky via the Solver "
      "facade: kernel settings × workers, measured vs modeled peak");

  constexpr int kReference = 0;
  constexpr int kDefault = 1;
  const KernelConfig kernels[] = {{.block_size = 1, .workers = 1}, {}};
  const char* const kernel_names[] = {"reference", "default"};

  CsvWriter csv(bench::output_dir() + "/numeric_parallel.csv",
                {"instance", "n", "tree_nodes", "tasks", "kernel", "block_size",
                 "workers", "mode", "admission", "memory_budget", "feasible",
                 "serial_seconds", "parallel_seconds", "speedup_vs_serial",
                 "measured_peak", "modeled_peak", "flops"});

  TextTable table({"instance", "n", "supernodes", "tasks w=8", "serial s",
                   "reference w=8 s", "default w=8 s", "best speedup",
                   "capped greedy", "capped la"});

  // "Largest" for the root-front check means the most factorization work
  // (dense flops), not the widest matrix — a huge narrow-band instance has
  // only small fronts and says nothing about kernel quality.
  std::string largest_name;
  long long largest_flops = -1;
  double largest_reference_w8 = 0.0, largest_default_w8 = 0.0;

  for (const auto& [source, ordering] : instances) {
    const std::string name = source.name + "/" + to_string(ordering) +
                             "/r" + std::to_string(options.relax_values.front());
    const SymmetricMatrix values =
        make_spd_matrix(source.pattern, options.seed);
    const Index n = source.pattern.cols();

    // Analyze ONCE; every run below reuses the symbolic state. The plan
    // pins the best postorder — the serial yardstick the kernel settings
    // are measured against.
    AnalyzeOptions analyze;
    analyze.ordering = ordering;
    analyze.relax = options.relax_values.front();
    Solver solver;
    solver.analyze(source.pattern, analyze);
    const Tree& tree = solver.assembly().tree;

    PlanOptions free_plan;
    free_plan.policy = TraversalPolicy::kPostorder;
    solver.plan(free_plan);

    FactorizeOptions serial_options;
    serial_options.engine = FactorizeEngine::kSerial;
    serial_options.kernel = kernels[kReference];
    solver.factorize(values, serial_options);
    const double serial_seconds = solver.stats().factorize_seconds;
    const long long serial_flops = solver.stats().flops;
    const std::vector<double> serial_factor = solver.factor().values;

    // The w = 1 modeled peak anchors the capped runs (kernel-independent:
    // the model sees only the assembly-tree weights).
    FactorizeOptions w1 = serial_options;
    w1.engine = FactorizeEngine::kParallel;
    w1.workers = 1;
    solver.factorize(values, w1);
    const Weight cap = std::max(solver.stats().modeled_peak_entries * 3 / 2,
                                tree.max_mem_req());

    double best_speedup = 0.0;
    std::string capped_greedy_cell = "-";
    std::string capped_lookahead_cell = "-";

    // One parallel run's numbers, captured from SolverStats at run time
    // (the solver's stats describe only the *latest* factorize call).
    struct RunSample {
      bool feasible = false;
      double seconds = 0.0;
      Weight measured_peak = 0;
      Weight modeled_peak = 0;
      long long flops = 0;
      NodeId tasks = 0;
    };
    const auto write_row = [&](int ki, int workers, const char* mode_label,
                               AdmissionPolicy admission, Weight budget,
                               const RunSample& run, double speedup) {
      csv.write_row(
          {name, CsvWriter::cell(static_cast<long long>(n)),
           CsvWriter::cell(static_cast<long long>(tree.size())),
           CsvWriter::cell(static_cast<long long>(run.tasks)),
           kernel_names[ki],
           CsvWriter::cell(static_cast<long long>(kernels[ki].block_size)),
           CsvWriter::cell(static_cast<long long>(workers)), mode_label,
           to_string(admission),
           budget == kInfiniteWeight ? std::string("inf")
                                     : std::to_string(budget),
           run.feasible ? "1" : "0", CsvWriter::cell(serial_seconds),
           CsvWriter::cell(run.seconds), CsvWriter::cell(speedup),
           CsvWriter::cell(static_cast<long long>(run.measured_peak)),
           CsvWriter::cell(static_cast<long long>(run.modeled_peak)),
           CsvWriter::cell(run.flops)});
    };

    // A parallel factorization through the facade; a greedy stall is
    // surfaced as an infeasible sample (typed SolverStallError — not
    // smoothed over by the serial fallback). Exactness enforcement on
    // every feasible run: a fast wrong kernel must crash the bench, not
    // chart a win.
    const auto parallel_run = [&](int ki, int workers,
                                  AdmissionPolicy admission =
                                      AdmissionPolicy::kGreedy) {
      FactorizeOptions run_options;
      run_options.engine = FactorizeEngine::kParallel;
      run_options.workers = workers;
      run_options.kernel = kernels[ki];
      run_options.admission = admission;
      run_options.allow_serial_fallback = false;
      RunSample sample;
      try {
        solver.factorize(values, run_options);
      } catch (const SolverStallError&) {
        return sample;
      }
      TM_CHECK(solver.factor().values == serial_factor,
               kernel_names[ki] << " kernel at w=" << workers
                                << " diverged from serial on " << name);
      sample.feasible = true;
      sample.seconds = solver.stats().factorize_seconds;
      sample.measured_peak = solver.stats().measured_peak_entries;
      sample.modeled_peak = solver.stats().modeled_peak_entries;
      sample.flops = solver.stats().flops;
      sample.tasks = solver.stats().parallel_tasks;
      return sample;
    };

    // Worker sweep (single samples) for both kernel settings.
    for (int ki = 0; ki < 2; ++ki) {
      for (const int workers : {1, 2, 4}) {
        const RunSample run = parallel_run(ki, workers);
        write_row(ki, workers, "free", AdmissionPolicy::kGreedy,
                  kInfiniteWeight, run,
                  serial_seconds / std::max(run.seconds, 1e-12));
      }
    }

    // One capped point (default kernel, w = 4) per admission policy: the
    // greedy column charts the stall, the lookahead column the stall-free
    // throughput under the same budget. Re-planning reuses the symbolic
    // state; kAuto may tighten the traversal to fit (the facade's regime
    // logic), and the parallel engine only consumes the budget.
    for (const AdmissionPolicy admission :
         {AdmissionPolicy::kGreedy, AdmissionPolicy::kLookahead}) {
      PlanOptions plan;
      plan.memory_budget = cap;
      plan.admission = admission;
      solver.plan(plan);
      const RunSample run = parallel_run(kDefault, 4, admission);
      const double speedup =
          run.feasible ? serial_seconds / std::max(run.seconds, 1e-12)
                       : 0.0;
      write_row(kDefault, 4, "capped", admission, cap, run, speedup);
      (admission == AdmissionPolicy::kLookahead ? capped_lookahead_cell
                                                : capped_greedy_cell) =
          run.feasible ? fmt(speedup) + "x" : "stall";
    }

    // w = 8 shootout — the wall-clock comparison the root-front check
    // reads. Reps interleave the settings so machine drift lands on both
    // equally; min-of-3 is the estimator.
    solver.plan(free_plan);
    RunSample best[2];
    for (int rep = 0; rep < 3; ++rep) {
      for (int ki = 0; ki < 2; ++ki) {
        const RunSample run = parallel_run(ki, 8);
        TM_CHECK(run.feasible, "unbounded w=8 run must be feasible");
        if (rep == 0 || run.seconds < best[ki].seconds) {
          best[ki] = run;
        }
      }
    }
    for (int ki = 0; ki < 2; ++ki) {
      const double speedup =
          serial_seconds / std::max(best[ki].seconds, 1e-12);
      write_row(ki, 8, "free", AdmissionPolicy::kGreedy, kInfiniteWeight,
                best[ki], speedup);
      best_speedup = std::max(best_speedup, speedup);
    }

    if (serial_flops > largest_flops) {
      largest_flops = serial_flops;
      largest_name = name;
      largest_reference_w8 = best[kReference].seconds;
      largest_default_w8 = best[kDefault].seconds;
    }
    table.add_row({name, std::to_string(n), std::to_string(tree.size()),
                   std::to_string(best[kDefault].tasks),
                   fmt(serial_seconds, 3),
                   fmt(best[kReference].seconds, 3),
                   fmt(best[kDefault].seconds, 3), fmt(best_speedup),
                   capped_greedy_cell, capped_lookahead_cell});
  }

  std::cout << table.to_string();
  std::cout << "\nroot-front check (largest instance, " << largest_name
            << "): default kernel w=8 " << fmt(largest_default_w8, 3)
            << " s vs scalar reference w=8 " << fmt(largest_reference_w8, 3)
            << " s — "
            << fmt(largest_reference_w8 / std::max(largest_default_w8, 1e-12))
            << "x\n";
  std::cout << "\nreading: every instance is analyzed once and factorized "
               "~20 times through the\nfacade's reuse path — both kernel "
               "settings reproduce the serial factor bit for\nbit at every "
               "worker count, while the engine's measured live entries stay\n"
               "within the Eq. 1 model reported by SolverStats. The default "
               "kernel's blocked\npanels and leased tiles outrun the scalar "
               "reference on the dense-front-heavy\ninstances — the "
               "intra-front lever for the root fronts that cap tree-level\n"
               "speedup — and re-planning with the budget capped at 1.5x "
               "the w=1 peak\nthrottles or stalls the greedy schedule, while "
               "the lookahead admission policy\nfactors the same instances "
               "stall-free under the same budget: the\n"
               "memory/parallelism tension the paper's conclusion "
               "anticipates, on real\nnumeric payloads.\n";
  std::cout << "raw data: " << csv.path() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      std::cerr << "usage: numeric_parallel [--trace out.json]\n";
      return 2;
    }
  }
  return run(trace_path);
}
