// Tests for the pluggable admission policies of the memory-bounded
// scheduler (parallel/schedule_core.hpp) and their threading through the
// simulator, the executor, factor_parallel and the Solver facade.
//
// The load-bearing properties:
//   * zero stalls: with budget >= the serial witness peak, the lookahead
//     policy always completes — pinned at the tightest legal budget (the
//     MinMem optimum itself) on random trees, and at the ROADMAP's 1.5x
//     budget on the 10-instance numeric corpus, where the greedy baseline
//     deadlocks on six instances;
//   * the measured <= modeled <= budget invariant holds under every
//     policy, on the simulator and on real threads;
//   * w = 1 parity: the executor takes exactly the simulator's admission
//     decisions for each policy (same completion order, same peak);
//   * the factor is bit-identical across policies (admission only reorders
//     the schedule; the numerics are schedule-exact).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/check.hpp"
#include "core/minmem.hpp"
#include "core/postorder.hpp"
#include "multifrontal/numeric.hpp"
#include "multifrontal/numeric_parallel.hpp"
#include "parallel/executor.hpp"
#include "parallel/parallel_sim.hpp"
#include "perf/corpus.hpp"
#include "solver/solver.hpp"
#include "sparse/generators.hpp"
#include "sparse/matrix.hpp"
#include "test_util.hpp"
#include "tree/generators.hpp"

namespace treemem {
namespace {

using testing::small_tree_corpus;

/// The ROADMAP's stall-testbed budget: 1.5x the serial optimum, floored at
/// max MemReq (below which no schedule exists at all). One definition
/// shared with bench/parallel_tradeoff and bench/regression_report.
Weight tight_budget(const Tree& tree) {
  const Weight serial_opt = minmem_optimal(tree).peak;
  return std::max(serial_opt + serial_opt / 2, tree.max_mem_req());
}

TEST(AdmissionPolicyName, ToString) {
  EXPECT_STREQ(to_string(AdmissionPolicy::kGreedy), "greedy");
  EXPECT_STREQ(to_string(AdmissionPolicy::kLookahead), "lookahead");
}

TEST(AdmissionWitness, RejectsStructurallyInvalidWitness) {
  const Tree tree = testing::tiny_mixed();
  const auto durations = default_task_durations(tree);
  // Top-down (root-first) order is not a valid bottom-up witness.
  Traversal top_down = tree.top_down_order();
  EXPECT_THROW(ScheduleCore(tree,
                            {.memory_budget = tree.max_mem_req() * 4,
                             .admission = AdmissionPolicy::kLookahead,
                             .serial_witness = top_down},
                            durations),
               Error);
}

TEST(AdmissionWitness, InfiniteBudgetDegradesToGreedy) {
  const Tree tree = testing::tiny_mixed();
  const auto durations = default_task_durations(tree);
  ScheduleCore core(tree, {.admission = AdmissionPolicy::kLookahead},
                    durations);
  EXPECT_EQ(core.admission(), AdmissionPolicy::kGreedy);
  EXPECT_EQ(core.witness_peak(), 0);
}

// The zero-stall guarantee at the *tightest legal budget*: the witness's
// own serial peak. Greedy routinely deadlocks here; lookahead must always
// complete, with the accounted peak within budget.
TEST(AdmissionSimulator, NonGreedyNeverStallsAtWitnessPeak) {
  int greedy_stalls = 0;
  for (const Tree& tree : small_tree_corpus(60, 24)) {
    const auto mm = minmem_optimal(tree);
    const Weight budget = std::max(mm.peak, tree.max_mem_req());
    for (const int workers : {2, 4}) {
      ParallelOptions options;
      options.workers = workers;
      options.memory_budget = budget;
      options.admission = AdmissionPolicy::kGreedy;
      greedy_stalls += !simulate_parallel_traversal(tree, options).feasible;
      options.admission = AdmissionPolicy::kLookahead;
      options.serial_witness = reverse_traversal(mm.order);
      const auto run = simulate_parallel_traversal(tree, options);
      ASSERT_TRUE(run.feasible) << "lookahead stalled at the witness peak (w="
                                << workers << ", p=" << tree.size() << ")";
      EXPECT_LE(run.peak_memory, budget);
    }
  }
  // The corpus must keep exercising the hard regime, or the guarantee
  // above is vacuous.
  EXPECT_GT(greedy_stalls, 0);
}

// An empty witness defaults to the MinMem optimum internally — same
// guarantee without the caller supplying a traversal.
TEST(AdmissionSimulator, DefaultWitnessIsMinMemOptimal) {
  for (const Tree& tree : small_tree_corpus(20, 16, /*salt=*/7)) {
    const Weight budget =
        std::max(minmem_optimal(tree).peak, tree.max_mem_req());
    ParallelOptions options;
    options.workers = 4;
    options.memory_budget = budget;
    options.admission = AdmissionPolicy::kLookahead;
    const auto run = simulate_parallel_traversal(tree, options);
    ASSERT_TRUE(run.feasible);
    EXPECT_LE(run.peak_memory, budget);
  }
}

// Below the witness peak no admission is ever safe: schedule_feasible()
// reports infeasibility up front instead of deadlocking mid-run.
TEST(AdmissionSimulator, BudgetBelowWitnessPeakIsInfeasible) {
  const Tree tree = gen::chain(6, 5, 3);
  const auto mm = minmem_optimal(tree);
  if (tree.max_mem_req() < mm.peak) {
    ParallelOptions options;
    options.workers = 2;
    options.memory_budget = mm.peak - 1;
    options.admission = AdmissionPolicy::kLookahead;
    EXPECT_FALSE(simulate_parallel_traversal(tree, options).feasible);
  }
}

// w = 1 admission-decision parity: the executor drives the same
// ScheduleCore sequentially, so for every policy its completion order,
// feasibility and peak match the simulation exactly.
TEST(AdmissionExecutor, W1SimulatorParityPerPolicy) {
  for (const Tree& tree : small_tree_corpus(36, 20, /*salt=*/3)) {
    const auto mm = minmem_optimal(tree);
    const Weight budget = std::max(mm.peak, tree.max_mem_req());
    for (const AdmissionPolicy policy :
         {AdmissionPolicy::kGreedy, AdmissionPolicy::kLookahead}) {
      const ParallelOptions options{
          .workers = 1,
          .memory_budget = budget,
          .admission = policy,
          .serial_witness = reverse_traversal(mm.order)};
      const auto sim = simulate_parallel_traversal(tree, options);
      const auto exec = execute_task_tree(tree, {.schedule = options});

      ASSERT_EQ(sim.feasible, exec.feasible) << to_string(policy);
      if (!sim.feasible) {
        continue;  // greedy may legitimately deadlock at this budget
      }
      EXPECT_EQ(sim.peak_memory, exec.peak_memory) << to_string(policy);
      EXPECT_EQ(sim.completion_order, exec.completion_order)
          << to_string(policy);
    }
  }
}

// Real threads, tight budget: lookahead completes under every interleaving
// and the accounted peak stays within budget. (This is the suite's TSan
// surface for the admission bookkeeping.)
TEST(AdmissionExecutor, NonGreedyFeasibleOnThreadsAtWitnessPeak) {
  for (const Tree& tree : small_tree_corpus(24, 20, /*salt=*/11)) {
    const auto mm = minmem_optimal(tree);
    const Weight budget = std::max(mm.peak, tree.max_mem_req());
    ExecutorOptions options;
    options.schedule = {.workers = 4,
                        .memory_budget = budget,
                        .admission = AdmissionPolicy::kLookahead,
                        .serial_witness = reverse_traversal(mm.order)};
    const auto run = execute_task_tree(tree, options);
    ASSERT_TRUE(run.feasible)
        << "lookahead stalled on threads (p=" << tree.size() << ")";
    EXPECT_LE(run.peak_memory, budget);
    const Weight checker_peak =
        in_tree_traversal_peak(tree, run.completion_order);
    EXPECT_LE(checker_peak, budget);
  }
}

// ---------------------------------------------------------------------------
// The 10-instance numeric corpus at the ROADMAP's 1.5x budget, w = 4 — the
// "kill the stalls" regression suite.
// ---------------------------------------------------------------------------

const std::vector<NumericInstance>& corpus_instances() {
  static const std::vector<NumericInstance> instances =
      build_numeric_instances(CorpusOptions{}, 5);
  return instances;
}

TEST(AdmissionCorpus, ZeroStallsAtTightBudgetW4) {
  // The greedy baseline's stall set at this budget — pinned exactly so the
  // testbed stays meaningful (if these ever stop stalling, greedy
  // regressions would go unobserved).
  const std::vector<std::string> known_greedy_stalls = {
      "blocktri-dense/mindeg/r1", "blocktri-dense/nd/r1",
      "blocktri-sparse/mindeg/r1", "blocktri-sparse/nd/r1",
      "band-48/mindeg/r1",        "band-48/nd/r1"};
  std::vector<std::string> greedy_stalls;
  int within_ten_percent_checked = 0;
  ASSERT_EQ(corpus_instances().size(), 10u);
  for (const NumericInstance& instance : corpus_instances()) {
    const Tree& tree = instance.assembly.tree;
    const Weight budget = tight_budget(tree);
    const Traversal witness =
        reverse_traversal(minmem_optimal(tree).order);

    ParallelOptions free_options;
    free_options.workers = 4;
    const auto free_run = simulate_parallel_traversal(tree, free_options);
    ASSERT_TRUE(free_run.feasible);

    ParallelOptions options;
    options.workers = 4;
    options.memory_budget = budget;
    options.serial_witness = witness;

    options.admission = AdmissionPolicy::kGreedy;
    if (!simulate_parallel_traversal(tree, options).feasible) {
      greedy_stalls.push_back(instance.name);
    }

    options.admission = AdmissionPolicy::kLookahead;
    const auto run = simulate_parallel_traversal(tree, options);
    ASSERT_TRUE(run.feasible) << instance.name << " stalled under lookahead";
    EXPECT_LE(run.peak_memory, budget) << instance.name;
    // Where the uncapped schedule's peak already fits the budget, memory is
    // not the binding constraint, and lookahead must not cost more than
    // 10% of the uncapped speedup. Where the uncapped peak exceeds the
    // budget — up to 4.8x the serial optimum on this corpus — the budget
    // itself bounds the speedup; zero stalls still holds, and
    // bench/regression_report charts the retention.
    if (free_run.peak_memory <= budget) {
      EXPECT_GE(run.speedup, 0.9 * free_run.speedup) << instance.name;
      ++within_ten_percent_checked;
    }
  }
  EXPECT_EQ(greedy_stalls, known_greedy_stalls);
  // The within-10% leg must actually trigger on this corpus.
  EXPECT_GE(within_ten_percent_checked, 2);
}

// Bit-identical factors across both policies on a formerly-stalling
// instance: admission reorders the schedule, and the numerics are
// schedule-exact. Greedy deadlocks at the tight budget, so it is compared
// at an unconstrained budget instead; the serial engine anchors the bits.
TEST(AdmissionCorpus, FactorsBitIdenticalAcrossPolicies) {
  const NumericInstance* stalling = nullptr;
  for (const NumericInstance& instance : corpus_instances()) {
    if (instance.name == "blocktri-dense/nd/r1") {
      stalling = &instance;
    }
  }
  ASSERT_NE(stalling, nullptr);
  const Tree& tree = stalling->assembly.tree;
  const Weight budget = tight_budget(tree);
  const Traversal witness = reverse_traversal(minmem_optimal(tree).order);

  const MultifrontalResult serial = multifrontal_cholesky(
      stalling->matrix, stalling->assembly, witness, KernelConfig{});

  ParallelFactorOptions options;
  options.workers = 4;
  options.kernel = KernelConfig{};

  options.admission = AdmissionPolicy::kGreedy;  // unconstrained: no stall
  const auto greedy = factor_parallel(stalling->matrix, stalling->assembly,
                                      options);
  ASSERT_TRUE(greedy.feasible);
  EXPECT_EQ(greedy.factor.values, serial.factor.values);

  options.memory_budget = budget;
  options.serial_witness = witness;
  options.admission = AdmissionPolicy::kLookahead;
  const auto run =
      factor_parallel(stalling->matrix, stalling->assembly, options);
  ASSERT_TRUE(run.feasible);
  EXPECT_LE(run.measured_peak_entries, run.modeled_peak_entries);
  EXPECT_LE(run.modeled_peak_entries, budget);
  EXPECT_EQ(run.factor.values, serial.factor.values);
}

// ---------------------------------------------------------------------------
// Solver facade: admission threading, env knob.
// ---------------------------------------------------------------------------

TEST(AdmissionSolver, LookaheadThroughTheFacadeIsBitIdentical) {
  const SparsePattern pattern = symmetrize(gen::grid2d(14, 14));
  const SymmetricMatrix matrix = make_spd_matrix(pattern, 2011);

  // Serial reference factor (unconstrained plan).
  Solver reference;
  reference.analyze(pattern).plan();
  FactorizeOptions serial;
  serial.workers = 1;
  reference.factorize(matrix, serial);
  const PanelBuffer reference_values = reference.factor().values;

  Solver solver;
  solver.analyze(pattern);
  const Tree& tree = solver.assembly().tree;

  PlanOptions plan;
  plan.memory_budget = tight_budget(tree);
  solver.plan(plan);

  FactorizeOptions factorize;
  factorize.workers = 4;
  factorize.admission = AdmissionPolicy::kLookahead;
  solver.factorize(matrix, factorize);
  const SolverStats stats = solver.stats();
  EXPECT_EQ(stats.engine, "parallel");
  EXPECT_EQ(stats.admission, "lookahead");
  EXPECT_FALSE(stats.stall_fallback);
  EXPECT_LE(stats.measured_peak_entries, stats.modeled_peak_entries);
  EXPECT_LE(stats.modeled_peak_entries, plan.memory_budget);
  EXPECT_EQ(solver.factor().values, reference_values);
}

}  // namespace
}  // namespace treemem
