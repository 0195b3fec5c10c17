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
// (the scalar reference along the planned best postorder), and at
// w ∈ {1, 2, 4, 8} (the facade runs the threaded engine from w = 2 on)
// under the scalar reference settings ({block 1, one worker}: 1-wide
// panels, no leasing) and the default kernel (16-wide panels, trailing
// updates on leased tiles) — free and (at w = 4, default kernel)
// re-planned with the modeled budget capped at 1.5× the threaded engine's
// w = 1 modeled peak. Reported per run: measured factor seconds, speedup
// over the serial engine, the engine's *measured* peak live entries and
// the *modeled* Eq. 1 peak from SolverStats — the same quantity in the
// same units, machine vs. model. Under the cap, lookahead admission runs
// threaded. Greedy admission is simulated (parallel/parallel_sim.hpp) on
// the task tree the threaded engine would run, with the same budget,
// priority and witness: whether a threaded greedy run stalls depends on
// thread timing, so only the simulated cell reads the same in every run.
// A simulated stall is the greedy scheduler's memory deadlock (which the
// facade reports in SolverStats::stall_fallback after falling back to the
// serial engine).
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
#include "multifrontal/numeric_parallel.hpp"
#include "multifrontal/task_tree.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_sim.hpp"
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
  // build_numeric_instances analyzes through the same Solver::analyze, so
  // these instances carry its trees.
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
                   "capped greedy (sim)", "capped la"});

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
    serial_options.workers = 1;
    serial_options.kernel = kernels[kReference];
    solver.factorize(values, serial_options);
    const double serial_seconds = solver.stats().factorize_seconds;
    const long long serial_flops = solver.stats().flops;
    const PanelBuffer serial_factor = solver.factor().values;

    // The threaded engine's w = 1 modeled peak anchors the capped runs
    // (kernel-independent: the model sees only the assembly-tree weights).
    // The facade runs one worker serially, so this run goes to the engine.
    const SymmetricMatrix permuted = values.permuted(solver.permutation());
    const ParallelFactorResult w1 =
        factor_parallel(permuted, solver.assembly(),
                        {.workers = 1,
                         .serial_witness = solver.planned_traversal(),
                         .kernel = kernels[kReference]});
    const Weight cap =
        std::max(w1.modeled_peak_entries * 3 / 2, tree.max_mem_req());

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

    // A parallel factorization through the facade; a greedy stall (the
    // facade's stall_fallback) is charted as an infeasible sample, not as
    // the serial fallback's time. Exactness enforcement on every run: a
    // fast wrong kernel must crash the bench, not chart a win.
    const auto parallel_run = [&](int ki, int workers,
                                  AdmissionPolicy admission =
                                      AdmissionPolicy::kGreedy) {
      FactorizeOptions run_options;
      run_options.workers = workers;
      run_options.kernel = kernels[ki];
      run_options.admission = admission;
      RunSample sample;
      solver.factorize(values, run_options);
      TM_CHECK(solver.factor().values == serial_factor,
               kernel_names[ki] << " kernel at w=" << workers
                                << " diverged from serial on " << name);
      if (solver.stats().stall_fallback) {
        return sample;
      }
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

    // One capped point (w = 4) per admission policy under the same budget:
    // the greedy column charts the stall, the lookahead column the
    // stall-free throughput. Re-planning reuses the symbolic state; kAuto
    // may tighten the traversal to fit (the facade's regime logic), and
    // the parallel engine only consumes the budget.
    constexpr int kCappedWorkers = 4;
    PlanOptions capped_plan;
    capped_plan.memory_budget = cap;
    solver.plan(capped_plan);
    {
      // Greedy, simulated on the threaded engine's task tree and options
      // (see the header comment); its speedup is in modeled flop time.
      const TaskTree tasks = contract_subtrees(
          tree,
          estimated_front_flops(*solver.assembly().fronts),
          solver.planned_traversal(), kCappedWorkers);
      const ParallelScheduleResult sim = simulate_parallel_traversal(
          tasks.tree,
          {.workers = kCappedWorkers,
           .memory_budget = cap,
           .priority = ParallelPriority::kCriticalPath,
           .admission = AdmissionPolicy::kGreedy,
           .serial_witness = tasks.witness},
          tasks.durations);
      RunSample run;
      run.feasible = sim.feasible;
      run.modeled_peak = sim.peak_memory;
      run.tasks = tasks.size();
      write_row(kDefault, kCappedWorkers, "capped-simulated",
                AdmissionPolicy::kGreedy, cap, run,
                sim.feasible ? sim.speedup : 0.0);
      capped_greedy_cell =
          sim.feasible ? fmt(sim.speedup) + "x" : "stall";
    }
    {
      const RunSample run =
          parallel_run(kDefault, kCappedWorkers, AdmissionPolicy::kLookahead);
      const double speedup =
          run.feasible ? serial_seconds / std::max(run.seconds, 1e-12)
                       : 0.0;
      write_row(kDefault, kCappedWorkers, "capped",
                AdmissionPolicy::kLookahead, cap, run, speedup);
      capped_lookahead_cell = run.feasible ? fmt(speedup) + "x" : "stall";
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
               "the w=1 peak\nthrottles or stalls the greedy schedule "
               "(simulated on the engine's task tree,\nso the cell reads the "
               "same in every run), while the lookahead admission\npolicy "
               "factors the same instances stall-free under the same budget: "
               "the\n"
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
