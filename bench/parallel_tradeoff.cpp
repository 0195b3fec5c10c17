// Extension bench: the parallel memory/speedup trade-off the paper's
// conclusion motivates — now both modeled AND measured.
//
// For a sample of corpus assembly trees, (a) simulate the multifrontal task
// tree on 1..16 workers and report speedup and shared-memory peak, free and
// capped at 1.5x the serial optimum; (b) run the same instances through the
// real threaded executor with a calibrated compute payload and report the
// measured makespan/speedup/peak side by side with the simulation. The
// payload burns a fixed number of arithmetic iterations per task (scaled to
// the task's modeled duration), so measured speedup — w=1 measured makespan
// over w=k measured makespan — reflects real core throughput rather than
// wall-clock concurrency.
#include <iomanip>
#include <iostream>

#include "bench_common.hpp"
#include "core/minmem.hpp"
#include "parallel/executor.hpp"
#include "parallel/parallel_sim.hpp"
#include "support/csv.hpp"
#include "support/text_table.hpp"
#include "support/timer.hpp"

namespace {

using namespace treemem;

/// Arithmetic kernel: burns `iters` dependent multiply-adds. volatile sink
/// keeps the optimizer from deleting the loop.
void burn(std::uint64_t iters) {
  volatile double sink = 1.0;
  double x = 1.000000013;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x = x * 1.0000001 + 1e-9;
  }
  sink = x;
  (void)sink;
}

/// Measured kernel iterations per second (calibrated once).
double calibrate_iters_per_second() {
  const std::uint64_t probe = 4'000'000;
  Timer timer;
  burn(probe);
  const double elapsed = timer.elapsed_s();
  return static_cast<double>(probe) / std::max(elapsed, 1e-9);
}

int run() {
  CorpusOptions options = bench::corpus_options();
  options.relax_values = {4};  // one amalgamation level suffices here
  const auto instances = build_corpus_instances(options);
  bench::print_header(
      "Extension — parallel traversal: speedup vs shared-memory peak, "
      "simulated and measured");

  CsvWriter csv(bench::output_dir() + "/parallel_tradeoff.csv",
                {"instance", "workers", "mode", "admission", "memory_budget",
                 "feasible", "makespan", "speedup", "peak_memory"});
  CsvWriter exec_csv(
      bench::output_dir() + "/parallel_executor.csv",
      {"instance", "workers", "mode", "admission", "memory_budget",
       "sim_feasible", "sim_speedup", "sim_peak", "exec_feasible",
       "exec_makespan_s", "exec_speedup_vs_serial", "exec_peak"});

  TextTable table({"instance", "w", "sim speedup", "measured speedup",
                   "meas/sim peak", "capped greedy", "capped la",
                   "la measured"});
  auto fmt = [](double v) {
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(2) << v;
    return oss.str();
  };

  const double iters_per_second = calibrate_iters_per_second();
  // Target ~50 ms of serial payload per run: large enough to swamp the
  // scheduler overhead, small enough for a per-PR smoke run.
  const double target_serial_seconds = 0.05;

  // A manageable sample: one instance per matrix family per ordering.
  for (std::size_t i = 0; i < instances.size(); i += 7) {
    const Tree& tree = instances[i].tree;
    const MinMemResult serial_mm = minmem_optimal(tree);
    const Weight serial_opt = serial_mm.peak;
    const Weight cap = std::max(serial_opt * 3 / 2, tree.max_mem_req());
    const Traversal witness = reverse_traversal(serial_mm.order);

    const auto durations = default_task_durations(tree);
    double total_units = 0.0;
    for (const double d : durations) {
      total_units += d;
    }
    const double iters_per_unit =
        target_serial_seconds * iters_per_second / std::max(total_units, 1.0);
    const TaskBody payload = [&](NodeId node, int) {
      burn(static_cast<std::uint64_t>(
          durations[static_cast<std::size_t>(node)] * iters_per_unit));
    };

    // Measured serial baseline (w = 1, no budget).
    ExecutorOptions serial_exec;
    serial_exec.schedule.workers = 1;
    const auto serial_run =
        execute_task_tree(tree, serial_exec, durations, payload);
    TM_CHECK(serial_run.feasible, "unbounded serial run must be feasible");

    for (const int workers : {2, 4, 8, 16}) {
      ParallelOptions free_opts;
      free_opts.workers = workers;
      const auto free_run = simulate_parallel_traversal(tree, free_opts);
      TM_CHECK(free_run.feasible, "unbounded run must be feasible");

      // Cap at 1.5x the serial optimum, once per admission policy. A tight
      // cap deadlocks the greedy scheduler outright (eagerly started
      // subtrees strand resident files); the lookahead policy never stalls
      // once the budget covers the witness peak, so its column charts what
      // the throttle *costs* instead of where it breaks. The CSV also
      // sweeps 1.0x/2.0x budgets to chart where the greedy throttle
      // becomes a deadlock.
      constexpr AdmissionPolicy kPolicies[] = {AdmissionPolicy::kGreedy,
                                               AdmissionPolicy::kLookahead};
      for (const int pct : {100, 200}) {
        for (const AdmissionPolicy policy : kPolicies) {
          ParallelOptions sweep = free_opts;
          sweep.memory_budget =
              std::max(serial_opt * pct / 100, tree.max_mem_req());
          sweep.admission = policy;
          sweep.serial_witness = witness;
          const auto sweep_run = simulate_parallel_traversal(tree, sweep);
          csv.write_row({instances[i].name,
                         CsvWriter::cell(static_cast<long long>(workers)),
                         "cap" + std::to_string(pct), to_string(policy),
                         std::to_string(sweep.memory_budget),
                         sweep_run.feasible ? "1" : "0",
                         CsvWriter::cell(sweep_run.makespan),
                         CsvWriter::cell(sweep_run.speedup),
                         CsvWriter::cell(
                             static_cast<long long>(sweep_run.peak_memory))});
        }
      }

      // One source of truth for the free/capped runs: both CSVs and the
      // table iterate this same array, so the two files can never report
      // different mode sets for one run. Index 0 = free, then one capped
      // entry per policy in kPolicies order.
      struct Mode {
        const char* label;
        AdmissionPolicy admission;
        Weight budget;
        ParallelScheduleResult sim;
      };
      std::vector<Mode> modes;
      modes.push_back(
          {"free", AdmissionPolicy::kGreedy, kInfiniteWeight, free_run});
      for (const AdmissionPolicy policy : kPolicies) {
        ParallelOptions capped = free_opts;
        capped.memory_budget = cap;
        capped.admission = policy;
        capped.serial_witness = witness;
        modes.push_back(
            {"capped", policy, cap, simulate_parallel_traversal(tree, capped)});
      }

      for (const Mode& mode : modes) {
        csv.write_row(
            {instances[i].name, CsvWriter::cell(static_cast<long long>(workers)),
             mode.label, to_string(mode.admission),
             mode.budget == kInfiniteWeight
                 ? std::string("inf")
                 : std::to_string(mode.budget),
             mode.sim.feasible ? "1" : "0",
             CsvWriter::cell(mode.sim.makespan),
             CsvWriter::cell(mode.sim.speedup),
             CsvWriter::cell(static_cast<long long>(mode.sim.peak_memory))});
      }

      // Measured counterpart: same instance, same policies, real threads.
      // Keep the thread count sane for the smoke run; the simulation still
      // sweeps to 16.
      if (workers <= 8) {
        std::vector<ParallelScheduleResult> exec_by_mode(modes.size());
        std::vector<double> measured_speedup(modes.size(), 0.0);
        for (std::size_t m = 0; m < modes.size(); ++m) {
          const Mode& mode = modes[m];
          ExecutorOptions exec_opts;
          exec_opts.schedule = {.workers = workers,
                                .memory_budget = mode.budget,
                                .admission = mode.admission,
                                .serial_witness = witness};
          exec_by_mode[m] =
              execute_task_tree(tree, exec_opts, durations, payload);
          const ParallelScheduleResult& exec = exec_by_mode[m];
          measured_speedup[m] =
              exec.feasible
                  ? serial_run.makespan / std::max(exec.makespan, 1e-12)
                  : 0.0;
          exec_csv.write_row(
              {instances[i].name,
               CsvWriter::cell(static_cast<long long>(workers)), mode.label,
               to_string(mode.admission),
               mode.budget == kInfiniteWeight ? std::string("inf")
                                              : std::to_string(mode.budget),
               mode.sim.feasible ? "1" : "0",
               CsvWriter::cell(mode.sim.speedup),
               CsvWriter::cell(static_cast<long long>(mode.sim.peak_memory)),
               exec.feasible ? "1" : "0", CsvWriter::cell(exec.makespan),
               CsvWriter::cell(measured_speedup[m]),
               CsvWriter::cell(static_cast<long long>(exec.peak_memory))});
        }
        if (workers == 8) {
          table.add_row(
              {instances[i].name, std::to_string(workers),
               fmt(free_run.speedup), fmt(measured_speedup[0]),
               fmt(static_cast<double>(exec_by_mode[0].peak_memory) /
                   static_cast<double>(free_run.peak_memory)),
               modes[1].sim.feasible ? fmt(modes[1].sim.speedup) : "deadlock",
               fmt(modes[2].sim.speedup),
               exec_by_mode[2].feasible ? fmt(measured_speedup[2])
                                        : "stall"});
        }
      }
    }
  }
  std::cout << table.to_string();
  std::cout << "\nreading: parallel speedup costs memory — 8 workers push the\n"
               "peak to 2-3x the serial optimum, in the model and on the\n"
               "machine alike (measured speedup saturates at the physical\n"
               "core count; the simulator assumes w ideal cores). At the\n"
               "1.5x cap the greedy scheduler deadlocks on the dense\n"
               "families (started subtrees strand resident files); the\n"
               "lookahead admission policy never stalls there — its\n"
               "columns show what the throttle costs in speedup instead\n"
               "of where it breaks.\n";
  std::cout << "raw data: " << csv.path() << " and " << exec_csv.path() << "\n";
  return 0;
}

}  // namespace

int main() { return run(); }
