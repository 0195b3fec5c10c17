// Correctness suite for the parallel numeric multifrontal engine
// (multifrontal/numeric_parallel.hpp) — the first place worker threads
// share numeric buffers, so this binary also runs under TSan in CI.
//
// Pinned properties:
//   * factor_parallel at w ∈ {1, 2, 8} produces the serial engine's factor
//     bit for bit (fronts write disjoint columns and extend-add walks
//     children in tree order, so sums are schedule-exact), and L·Lᵀ
//     reconstructs A, across a randomized seeded SPD corpus spanning
//     chain-, star- and random-shaped assembly trees and both orderings;
//   * memory-model pinning: at w = 1 over perfectly amalgamated trees the
//     engine's measured live entries equal the abstract Eq. 1 transient of
//     core/check.hpp at every step; at any w, measured peak <= modeled
//     peak <= budget; the minimum feasible budget (the w = 1 modeled peak)
//     completes without stalls;
//   * schedule-independent outputs (factor values, flops, executed-task
//     set, final resident memory) are invariant across repeated w = 4 runs;
//   * the subtree contraction (multifrontal/task_tree.hpp) on corpus trees
//     and on non-postorder MinMem witnesses: every supernode lands in
//     exactly one task, a subtree task's MemReq is the Eq. 1 peak of its
//     restricted witness order, the collapsed witness keeps the witness's
//     peak, and lookahead at that peak completes at w = 4 without a stall;
//   * a non-SPD matrix surfaces a clean Error through the executor's
//     exception-propagation contract — also when the failing pivot lies in
//     a leaf front inside a subtree task — and an undersized budget
//     reports infeasible instead of hanging.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "core/check.hpp"
#include "core/in_tree.hpp"
#include "core/postorder.hpp"
#include "multifrontal/numeric_parallel.hpp"
#include "multifrontal/task_tree.hpp"
#include "parallel/executor.hpp"
#include "perf/corpus.hpp"
#include "sparse/generators.hpp"
#include "support/prng.hpp"
#include "test_util.hpp"

namespace treemem {
namespace {

/// Instances come from the corpus's own numeric pipeline
/// (build_numeric_instance), so this suite tests exactly the path the
/// bench and perf layers run — no drifting local re-implementation.
NumericInstance make_instance(const SparsePattern& raw, std::uint64_t seed,
                              OrderingKind ordering, Index relax) {
  return build_numeric_instance({"test", symmetrize(raw)}, ordering, relax,
                                seed);
}

MultifrontalResult serial_factor(const NumericInstance& inst) {
  // The scalar reference: one pivot per panel, no leasing.
  return multifrontal_cholesky(
      inst.matrix, inst.assembly,
      reverse_traversal(best_postorder(inst.assembly.tree).order),
      KernelConfig{.block_size = 1, .workers = 1});
}

/// Pattern families chosen for their assembly-tree shapes: narrow banded →
/// chain-like, arrowhead → star-like, random/grid → irregular.
std::vector<SparsePattern> pattern_family(std::uint64_t seed) {
  Prng prng(seed * 9176);
  return {
      gen::banded(60, 2, 1.0, prng),        // chain-shaped etree
      gen::arrowhead(48, 6),                // star-shaped etree
      gen::random_symmetric(64, 3.0, prng), // random tree
      gen::grid2d(8, 8),                    // realistic FEM-ish tree
  };
}

class NumericParallelSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NumericParallelSweep, MatchesSerialFactorAndReconstructsA) {
  // 7 seeds x 4 patterns x 2 orderings = 56 instances; with the varying
  // relax levels they span chain/star/random trees, both orderings and all
  // amalgamation regimes the serial suite exercises.
  const std::uint64_t seed = GetParam();
  const Index relax_by_seed[] = {0, 1, 4};
  const Index relax = relax_by_seed[seed % 3];
  for (const auto& raw : pattern_family(seed)) {
    for (const OrderingKind ordering :
         {OrderingKind::kMinDegree, OrderingKind::kNestedDissection}) {
      const NumericInstance inst = make_instance(raw, seed, ordering, relax);
      const MultifrontalResult serial = serial_factor(inst);
      ASSERT_LT(relative_residual(inst.matrix, serial.factor), 1e-12);

      // Wider panels on the serial driver are bit-identical to the scalar
      // reference across the whole 56-instance corpus (block size varied
      // by seed so the sweep covers width-1, mid, and
      // wider-than-most-fronts panels).
      {
        KernelConfig blocked;
        blocked.block_size = static_cast<std::size_t>(1) << (seed % 7);
        const MultifrontalResult blocked_run = multifrontal_cholesky(
            inst.matrix, inst.assembly,
            reverse_traversal(best_postorder(inst.assembly.tree).order),
            blocked);
        EXPECT_TRUE(testing::bitwise_equal(blocked_run.factor.values,
                                           serial.factor.values))
            << "blocked nb=" << blocked.block_size;
        EXPECT_EQ(blocked_run.flops, serial.flops);
        EXPECT_EQ(blocked_run.peak_live_entries, serial.peak_live_entries);
      }

      for (const int workers : {1, 2, 8}) {
        ParallelFactorOptions options;
        options.workers = workers;
        const ParallelFactorResult run =
            factor_parallel(inst.matrix, inst.assembly, options);
        ASSERT_TRUE(run.feasible) << "w=" << workers;
        // Bit-exact, not merely close: same kernels, same summation order.
        EXPECT_TRUE(
            testing::bitwise_equal(run.factor.values, serial.factor.values))
            << "w=" << workers << " relax=" << relax;
        EXPECT_EQ(run.flops, serial.flops);
        EXPECT_LE(run.measured_peak_entries, run.modeled_peak_entries);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NumericParallelSweep,
                         ::testing::Range<std::uint64_t>(1, 8));

TEST(NumericParallelMemory, SingleWorkerMatchesEquationOneExactly) {
  // With perfect amalgamation every front is exactly (eta+mu-1)^2 and every
  // contribution block (mu-1)^2, so on a single-worker schedule the
  // engine's measured occupancy must replay the abstract Eq. 1 accounting
  // of core/check.hpp step for step — transient AND after-step residents.
  for (const std::uint64_t seed : {3ULL, 11ULL, 19ULL}) {
    for (const auto& raw : pattern_family(seed)) {
      const NumericInstance inst =
          make_instance(raw, seed, OrderingKind::kMinDegree, /*relax=*/0);
      const Tree& tree = inst.assembly.tree;
      ParallelFactorOptions options;
      options.workers = 1;
      const ParallelFactorResult run =
          factor_parallel(inst.matrix, inst.assembly, options);
      ASSERT_TRUE(run.feasible);
      ASSERT_EQ(run.completion_order.size(),
                static_cast<std::size_t>(tree.size()));

      Weight resident = 0;
      for (std::size_t t = 0; t < run.completion_order.size(); ++t) {
        const NodeId x = run.completion_order[t];
        const Weight transient = resident + tree.work_size(x) +
                                 tree.file_size(x);
        EXPECT_EQ(run.transient_per_step[t], transient) << "step " << t;
        resident += tree.file_size(x) - tree.child_file_sum(x);
        EXPECT_EQ(run.live_after_step[t], resident) << "step " << t;
      }
      EXPECT_EQ(run.measured_peak_entries,
                in_tree_traversal_peak(tree, run.completion_order));
      EXPECT_EQ(run.measured_peak_entries, run.modeled_peak_entries);
    }
  }
}

TEST(NumericParallelMemory, MeasuredPeakWithinModelAndBudget) {
  const NumericInstance inst = make_instance(
      gen::grid2d(9, 9), 5, OrderingKind::kMinDegree, /*relax=*/4);
  const Tree& tree = inst.assembly.tree;
  const MultifrontalResult serial = serial_factor(inst);

  // A budget no reachable occupancy can exceed (all files resident plus a
  // full transient per worker): admission never blocks, so the run must
  // complete, with the modeled peak — and hence the measured one — below it.
  Weight all_files = 0;
  for (NodeId i = 0; i < tree.size(); ++i) {
    all_files += tree.file_size(i);
  }
  for (const int workers : {2, 4, 8}) {
    const Weight budget = all_files +
                          static_cast<Weight>(workers) * tree.max_mem_req();
    const ParallelFactorResult run =
        factor_parallel(inst.matrix, inst.assembly, budget, workers);
    ASSERT_TRUE(run.feasible) << "w=" << workers;
    EXPECT_LE(run.modeled_peak_entries, budget);
    EXPECT_LE(run.measured_peak_entries, run.modeled_peak_entries);
    EXPECT_TRUE(
        testing::bitwise_equal(run.factor.values, serial.factor.values));
  }

  // Tight budgets may defer or stall the greedy schedule depending on the
  // interleaving; either way the contract holds: a feasible run respects
  // the bound, an infeasible one reports cleanly instead of hanging.
  const ParallelFactorResult w1 = factor_parallel(
      inst.matrix, inst.assembly, kInfiniteWeight, 1);
  ASSERT_TRUE(w1.feasible);
  const ParallelFactorResult tight = factor_parallel(
      inst.matrix, inst.assembly, w1.modeled_peak_entries, 4);
  if (tight.feasible) {
    EXPECT_LE(tight.modeled_peak_entries, w1.modeled_peak_entries);
    EXPECT_LE(tight.measured_peak_entries, tight.modeled_peak_entries);
    EXPECT_TRUE(
        testing::bitwise_equal(tight.factor.values, serial.factor.values));
  } else {
    EXPECT_TRUE(tight.factor.values.empty());
  }
}

TEST(NumericParallelMemory, MinimumFeasibleBudgetCompletesWithoutStall) {
  // At w = 1 the greedy executor replays the unbounded run's decisions
  // whenever they fit, so its own peak is the minimum feasible budget for
  // this policy — running at exactly that budget must complete.
  for (const std::uint64_t seed : {2ULL, 7ULL}) {
    for (const auto& raw : pattern_family(seed)) {
      const NumericInstance inst = make_instance(
          raw, seed, OrderingKind::kNestedDissection, /*relax=*/1);
      const ParallelFactorResult free_run = factor_parallel(
          inst.matrix, inst.assembly, kInfiniteWeight, 1);
      ASSERT_TRUE(free_run.feasible);
      const ParallelFactorResult pinned = factor_parallel(
          inst.matrix, inst.assembly, free_run.modeled_peak_entries, 1);
      ASSERT_TRUE(pinned.feasible);
      EXPECT_EQ(pinned.modeled_peak_entries, free_run.modeled_peak_entries);
      EXPECT_EQ(pinned.completion_order, free_run.completion_order);
    }
  }
}

TEST(NumericParallelDeterminism, RepeatedRunsAgreeOnScheduleIndependentOutputs) {
  const NumericInstance inst = make_instance(
      gen::grid2d(10, 10), 23, OrderingKind::kMinDegree, /*relax=*/1);
  const Tree& tree = inst.assembly.tree;
  std::vector<double> reference_values;
  long long reference_flops = 0;
  for (int run_index = 0; run_index < 3; ++run_index) {
    ParallelFactorOptions options;
    options.workers = 4;
    const ParallelFactorResult run =
        factor_parallel(inst.matrix, inst.assembly, options);
    ASSERT_TRUE(run.feasible);

    // Executed-task set: every supernode exactly once.
    Traversal sorted = run.completion_order;
    std::sort(sorted.begin(), sorted.end());
    for (NodeId i = 0; i < tree.size(); ++i) {
      ASSERT_EQ(sorted[static_cast<std::size_t>(i)], i);
    }
    // The root completes last and drains all contribution blocks.
    EXPECT_EQ(run.completion_order.back(), tree.root());
    EXPECT_EQ(run.live_after_step.back(), 0);

    if (run_index == 0) {
      reference_values = run.factor.values;
      reference_flops = run.flops;
    } else {
      EXPECT_TRUE(
          testing::bitwise_equal(run.factor.values, reference_values));
      EXPECT_EQ(run.flops, reference_flops);
    }
  }
}

TEST(NumericParallelFailure, NonSpdMatrixThrowsCleanly) {
  // Negate an SPD matrix: the first pivot of some front is negative, the
  // kernel throws on a worker thread, and the executor's contract delivers
  // the Error to the caller after draining the pool — no deadlock, no
  // partial silence.
  const SparsePattern sym = symmetrize(gen::grid2d(6, 6));
  const SymmetricMatrix spd = make_spd_matrix(sym, 13);
  std::vector<double> values;
  for (Index j = 0; j < sym.cols(); ++j) {
    for (const Index r : sym.column(j)) {
      values.push_back(-spd.value_of(r, j));
    }
  }
  const SymmetricMatrix negated(sym, std::move(values));
  const AssemblyTree assembly = build_assembly_tree(sym, {});
  ParallelFactorOptions options;
  options.workers = 4;
  EXPECT_THROW(factor_parallel(negated, assembly, options), Error);
}

TEST(NumericParallelFailure, UndersizedBudgetReportsInfeasible) {
  const NumericInstance inst = make_instance(
      gen::grid2d(7, 7), 3, OrderingKind::kMinDegree, /*relax=*/1);
  const Weight too_small = inst.assembly.tree.max_mem_req() - 1;
  const ParallelFactorResult run =
      factor_parallel(inst.matrix, inst.assembly, too_small, 4);
  EXPECT_FALSE(run.feasible);
  EXPECT_TRUE(run.factor.values.empty());
  EXPECT_TRUE(run.completion_order.empty());
}

TEST(NumericParallelFailure, RejectsBadArguments) {
  const NumericInstance inst = make_instance(
      gen::grid2d(4, 4), 1, OrderingKind::kMinDegree, /*relax=*/1);
  ParallelFactorOptions options;
  options.workers = 0;
  EXPECT_THROW(factor_parallel(inst.matrix, inst.assembly, options), Error);
  // Mismatched matrix/tree pair.
  const NumericInstance other = make_instance(
      gen::grid2d(5, 5), 1, OrderingKind::kMinDegree, /*relax=*/1);
  EXPECT_THROW(
      factor_parallel(inst.matrix, other.assembly, ParallelFactorOptions{}),
      Error);
}

// ---------------------------------------------------------------------------
// Subtree contraction (multifrontal/task_tree.hpp)
// ---------------------------------------------------------------------------

const std::vector<NumericInstance>& corpus() {
  static const std::vector<NumericInstance> instances =
      build_numeric_instances(CorpusOptions{}, 5);
  return instances;
}

/// The subtree `fronts` spans, as a tree of its own whose node k is
/// fronts[k] (so the identity order is the restricted run order).
Tree subtree_of(const Tree& tree, std::span<const NodeId> fronts) {
  std::vector<NodeId> local(static_cast<std::size_t>(tree.size()), kNoNode);
  for (std::size_t k = 0; k < fronts.size(); ++k) {
    local[static_cast<std::size_t>(fronts[k])] = static_cast<NodeId>(k);
  }
  std::vector<NodeId> parents;
  std::vector<Weight> files, works;
  for (const NodeId v : fronts) {
    const NodeId parent = tree.parent(v);
    parents.push_back(parent == kNoNode
                          ? kNoNode
                          : local[static_cast<std::size_t>(parent)]);
    files.push_back(tree.file_size(v));
    works.push_back(tree.work_size(v));
  }
  return Tree(std::move(parents), std::move(files), std::move(works));
}

/// Checks the contraction contract for one (tree, flops, witness, w) and
/// returns the number of subtree tasks.
int check_contraction(const Tree& tree, const std::vector<double>& flops,
                      const Traversal& witness, int workers,
                      const std::string& label) {
  const TaskTree tasks = contract_subtrees(tree, flops, witness, workers);
  SCOPED_TRACE(label + " w=" + std::to_string(workers));

  // Every supernode lands in exactly one task.
  std::vector<int> seen(static_cast<std::size_t>(tree.size()), 0);
  int subtree_tasks = 0;
  double total = 0.0;
  for (const double f : flops) {
    total += f;
  }
  for (NodeId t = 0; t < tasks.size(); ++t) {
    const auto fronts = tasks.fronts_of(t);
    for (const NodeId v : fronts) {
      ++seen[static_cast<std::size_t>(v)];
    }
    const NodeId root = tasks.root_of(t);
    EXPECT_EQ(tasks.tree.file_size(t), tree.file_size(root));
    double sum = 0.0;
    for (const NodeId v : fronts) {
      sum += flops[static_cast<std::size_t>(v)];
    }
    EXPECT_DOUBLE_EQ(tasks.durations[static_cast<std::size_t>(t)], sum);
    if (fronts.size() == 1) {
      EXPECT_EQ(tasks.tree.mem_req(t), tree.mem_req(root)) << "task " << t;
      continue;
    }
    // A subtree task: a leaf under the cutoff whose MemReq is the serial
    // peak of the fronts it runs, in the witness order restricted to it.
    ++subtree_tasks;
    EXPECT_TRUE(tasks.tree.is_leaf(t));
    EXPECT_LE(sum, total / (2.0 * workers));
    Traversal run_order(fronts.size());
    std::iota(run_order.begin(), run_order.end(), 0);
    EXPECT_EQ(tasks.tree.mem_req(t),
              in_tree_traversal_peak(subtree_of(tree, fronts), run_order))
        << "task " << t << " rooted at " << root;
  }
  for (NodeId v = 0; v < tree.size(); ++v) {
    EXPECT_EQ(seen[static_cast<std::size_t>(v)], 1) << "supernode " << v;
  }

  // The collapsed witness has the witness's Eq. 1 peak.
  const Weight witness_peak = in_tree_traversal_peak(tree, witness);
  EXPECT_EQ(in_tree_traversal_peak(tasks.tree, tasks.witness), witness_peak);

  // So lookahead at exactly that budget never stalls on the task tree.
  ExecutorOptions options;
  options.workers = 4;
  options.memory_budget = witness_peak;
  options.admission = AdmissionPolicy::kLookahead;
  options.serial_witness = tasks.witness;
  const ExecutorResult run =
      execute_task_tree(tasks.tree, options, tasks.durations);
  EXPECT_TRUE(run.feasible);
  EXPECT_LE(run.peak_memory, witness_peak);
  return subtree_tasks;
}

TEST(NumericParallelTaskTree, ContractionContractOnCorpusTrees) {
  int subtree_tasks = 0;
  for (const NumericInstance& inst : corpus()) {
    const Tree& tree = inst.assembly.tree;
    const std::vector<double> flops =
        FrontalEngine(inst.matrix, inst.assembly).estimated_front_flops();
    const Traversal witnesses[] = {
        reverse_traversal(best_postorder(tree).order),
        in_tree_minmem_optimal(tree).order};
    for (const Traversal& witness : witnesses) {
      for (const int workers : {1, 2, 4, 8}) {
        subtree_tasks +=
            check_contraction(tree, flops, witness, workers, inst.name);
      }
    }
  }
  EXPECT_GT(subtree_tasks, 0);  // the corpus must exercise contraction
}

TEST(NumericParallelTaskTree, NonPostorderWitnessCollapsesOnlyContiguousRuns) {
  // On the harpoons the MinMem witness is no postorder: it drains every
  // heavy leaf into its v first and runs the u's last, so a branch subtree
  // {u, v, w} is not contiguous while {v, w} is. A dominant root puts every
  // branch under the cutoff, so only the contiguity rule decides.
  const Tree trees[] = {gen::harpoon(4, 400, 1),
                        gen::iterated_harpoon(3, 3, 300, 2)};
  for (const Tree& tree : trees) {
    const Traversal witness = in_tree_minmem_optimal(tree).order;
    const Traversal postorder = reverse_traversal(best_postorder(tree).order);
    ASSERT_LT(in_tree_traversal_peak(tree, witness),
              in_tree_traversal_peak(tree, postorder));
    std::vector<double> flops(static_cast<std::size_t>(tree.size()), 1.0);
    flops[static_cast<std::size_t>(tree.root())] = 1e9;
    for (const int workers : {1, 4}) {
      EXPECT_GT(check_contraction(tree, flops, witness, workers, "harpoon"),
                0);
      check_contraction(tree, flops, postorder, workers, "harpoon/po");
    }
  }
}

TEST(NumericParallelTaskTree, LookaheadAtWitnessPeakFactorsOnCorpus) {
  // The real engine at the tightest budget lookahead admits: the witness
  // peak of a non-postorder MinMem witness, at w = 4.
  for (const NumericInstance& inst : corpus()) {
    const Tree& tree = inst.assembly.tree;
    const MinMemResult minmem = in_tree_minmem_optimal(tree);
    const MultifrontalResult serial =
        multifrontal_cholesky(inst.matrix, inst.assembly, minmem.order);
    ParallelFactorOptions options;
    options.workers = 4;
    options.memory_budget = minmem.peak;
    options.admission = AdmissionPolicy::kLookahead;
    options.serial_witness = minmem.order;
    const ParallelFactorResult run =
        factor_parallel(inst.matrix, inst.assembly, options);
    ASSERT_TRUE(run.feasible) << inst.name;
    EXPECT_LT(run.tasks, tree.size()) << inst.name;
    EXPECT_LE(run.measured_peak_entries, run.modeled_peak_entries);
    EXPECT_LE(run.modeled_peak_entries, minmem.peak);
    EXPECT_EQ(run.flops, serial.flops);
    EXPECT_TRUE(
        testing::bitwise_equal(run.factor.values, serial.factor.values))
        << inst.name;
  }
}

TEST(NumericParallelFailure, NonSpdPivotInsideSubtreeTaskThrowsCleanly) {
  // The first pivot of a leaf front is its first member's diagonal entry
  // as assembled, so a negative diagonal there fails exactly that front —
  // chosen inside a subtree task, i.e. mid-way through a task's run.
  const NumericInstance inst = make_instance(
      gen::grid2d(16, 16), 41, OrderingKind::kNestedDissection, /*relax=*/1);
  const Tree& tree = inst.assembly.tree;
  const Traversal witness = reverse_traversal(best_postorder(tree).order);
  const std::vector<double> flops =
      FrontalEngine(inst.matrix, inst.assembly).estimated_front_flops();
  for (const int workers : {1, 2, 4}) {
    const TaskTree tasks = contract_subtrees(tree, flops, witness, workers);
    NodeId leaf = kNoNode;
    for (NodeId t = 0; t < tasks.size() && leaf == kNoNode; ++t) {
      const auto fronts = tasks.fronts_of(t);
      // Not the task's first front: fail after it already ran some.
      for (std::size_t k = 1; k < fronts.size(); ++k) {
        if (tree.is_leaf(fronts[k])) {
          leaf = fronts[k];
          break;
        }
      }
    }
    ASSERT_NE(leaf, kNoNode) << "no subtree task with a second leaf";

    const Index j = inst.assembly.fronts->members(leaf)[0];
    const SparsePattern& pattern = inst.matrix.pattern();
    std::vector<double> values = inst.matrix.values();
    const auto rows = pattern.column(j);
    const auto diagonal = static_cast<std::size_t>(
        std::find(rows.begin(), rows.end(), j) - rows.begin());
    values[static_cast<std::size_t>(
               pattern.col_ptr()[static_cast<std::size_t>(j)]) +
           diagonal] = -1.0;
    const SymmetricMatrix planted(pattern, std::move(values));

    ParallelFactorOptions options;
    options.workers = workers;
    options.serial_witness = witness;
    EXPECT_THROW(factor_parallel(planted, inst.assembly, options), Error)
        << "w=" << workers;
    // The engine and its pool are intact afterwards: the original matrix
    // still factors.
    const ParallelFactorResult run =
        factor_parallel(inst.matrix, inst.assembly, options);
    EXPECT_TRUE(run.feasible);
  }
}

}  // namespace
}  // namespace treemem
