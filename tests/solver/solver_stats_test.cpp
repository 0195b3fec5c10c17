// SolverStats across the whole phase sequence.
//
// Every field of the snapshot is pinned after each step of
// analyze → plan → factorize (serial, parallel, out-of-core) → solve →
// adopt → analyze: which section a step rebuilds, which it
// leaves alone, and which totals it keeps. The snapshot has three
// sections with one source each — the analysis, the plan and the latest
// factorization — plus the totals (factorizations, leases, solves), which
// analyze() resets and adopt() keeps.
//
// A second test pins the lease totals: with a private worker pool the
// per-run SolverStats lease deltas equal the pool's own counter deltas on
// one-worker (serial) and four-worker (parallel) runs alike.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/minmem.hpp"
#include "core/postorder.hpp"
#include "parallel/worker_pool.hpp"
#include "solver/solver.hpp"
#include "sparse/generators.hpp"
#include "test_util.hpp"

namespace treemem {
namespace {

AnalyzeOptions nd_options() {
  AnalyzeOptions options;
  options.ordering = OrderingChoice::kNestedDissection;
  options.relax = 1;
  return options;
}

FactorizeOptions workers_options(int workers) {
  FactorizeOptions options;
  options.workers = workers;
  return options;
}

void expect_analyze_section_eq(const SolverStats& a, const SolverStats& b) {
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.pattern_nnz, b.pattern_nnz);
  EXPECT_EQ(a.factor_nnz, b.factor_nnz);
  EXPECT_EQ(a.tree_nodes, b.tree_nodes);
  EXPECT_EQ(a.ordering, b.ordering);
  EXPECT_EQ(a.analyze_seconds, b.analyze_seconds);
}

void expect_plan_section_eq(const SolverStats& a, const SolverStats& b) {
  EXPECT_EQ(a.strategy, b.strategy);
  EXPECT_EQ(a.memory_budget, b.memory_budget);
  EXPECT_EQ(a.planned_peak_entries, b.planned_peak_entries);
  EXPECT_EQ(a.in_core_optimum, b.in_core_optimum);
  EXPECT_EQ(a.best_postorder_peak, b.best_postorder_peak);
  EXPECT_EQ(a.planned_io_volume, b.planned_io_volume);
  EXPECT_EQ(a.plan_seconds, b.plan_seconds);
}

void expect_run_section_eq(const SolverStats& a, const SolverStats& b) {
  EXPECT_EQ(a.engine, b.engine);
  EXPECT_EQ(a.admission, b.admission);
  EXPECT_EQ(a.workers, b.workers);
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.measured_peak_entries, b.measured_peak_entries);
  EXPECT_EQ(a.modeled_peak_entries, b.modeled_peak_entries);
  EXPECT_EQ(a.factorize_seconds, b.factorize_seconds);
  EXPECT_EQ(a.parallel_speedup, b.parallel_speedup);
  EXPECT_EQ(a.parallel_tasks, b.parallel_tasks);
  EXPECT_EQ(a.stall_fallback, b.stall_fallback);
}

void expect_totals_eq(const SolverStats& a, const SolverStats& b) {
  EXPECT_EQ(a.factorizations, b.factorizations);
  EXPECT_EQ(a.leases_granted, b.leases_granted);
  EXPECT_EQ(a.lease_denied, b.lease_denied);
  EXPECT_EQ(a.rhs_solved, b.rhs_solved);
  EXPECT_EQ(a.solve_seconds, b.solve_seconds);
}

/// The section a fresh Solver reports before any plan.
void expect_plan_section_empty(const SolverStats& s) {
  expect_plan_section_eq(s, SolverStats{});
}

/// The section before any factorization (and after adopt()).
void expect_run_section_empty(const SolverStats& s) {
  expect_run_section_eq(s, SolverStats{});
}

TEST(SolverStatsView, PinsEveryFieldAcrossThePhaseSequence) {
  const SparsePattern pattern = symmetrize(gen::grid2d(16, 16));
  const SymmetricMatrix matrix = make_spd_matrix(pattern, 23);

  // analyze: only the analyze section is filled in.
  Solver solver;
  solver.analyze(pattern, nd_options());
  const SolverStats analyzed = solver.stats();
  const Tree& tree = solver.assembly().tree;
  EXPECT_EQ(analyzed.n, 256);
  EXPECT_EQ(analyzed.pattern_nnz, pattern.nnz());
  const FrontStructure& fronts = *solver.assembly().fronts;
  const SparsePattern fill = testing::column_merge_factor(
      permute_symmetric(pattern, solver.permutation()));
  EXPECT_EQ(analyzed.factor_nnz, fronts.factor_nnz);
  EXPECT_EQ(analyzed.factor_nnz, fill.nnz());
  for (NodeId s = 0; s < tree.size(); ++s) {
    const auto members = fronts.members(s);
    std::vector<Index> expected(members.begin(), members.end());
    if (!members.empty()) {
      const auto below = fill.column(members.back()).subspan(1);
      expected.insert(expected.end(), below.begin(), below.end());
    }
    const auto rows = fronts.rows(s);
    EXPECT_EQ(std::vector<Index>(rows.begin(), rows.end()), expected)
        << "node " << s;
  }
  EXPECT_EQ(analyzed.tree_nodes, tree.size());
  EXPECT_EQ(analyzed.ordering, "nd");
  EXPECT_GT(analyzed.analyze_seconds, 0.0);
  expect_plan_section_empty(analyzed);
  expect_run_section_empty(analyzed);
  expect_totals_eq(analyzed, SolverStats{});

  // plan (unbounded): the plan section, from the planner's searches.
  solver.plan();
  const SolverStats planned = solver.stats();
  const Weight postorder_peak = best_postorder(tree).peak;
  const Weight optimum = minmem_optimal(tree).peak;
  expect_analyze_section_eq(planned, analyzed);
  EXPECT_EQ(planned.strategy, "postorder/in-core");
  EXPECT_EQ(planned.memory_budget, kInfiniteWeight);
  EXPECT_EQ(planned.planned_peak_entries, postorder_peak);
  EXPECT_EQ(planned.in_core_optimum, optimum);
  EXPECT_EQ(planned.best_postorder_peak, postorder_peak);
  EXPECT_EQ(planned.planned_io_volume, 0);
  EXPECT_GT(planned.plan_seconds, 0.0);
  expect_run_section_empty(planned);
  expect_totals_eq(planned, SolverStats{});

  // factorize, serial engine.
  solver.factorize(matrix, workers_options(1));
  const SolverStats serial = solver.stats();
  expect_analyze_section_eq(serial, analyzed);
  expect_plan_section_eq(serial, planned);
  EXPECT_EQ(serial.engine, "serial");
  EXPECT_EQ(serial.admission, "");
  EXPECT_EQ(serial.workers, 1);
  EXPECT_GT(serial.flops, 0);
  EXPECT_GT(serial.measured_peak_entries, 0);
  EXPECT_LE(serial.measured_peak_entries, serial.modeled_peak_entries);
  EXPECT_EQ(serial.modeled_peak_entries, postorder_peak);
  EXPECT_GT(serial.factorize_seconds, 0.0);
  EXPECT_EQ(serial.parallel_speedup, 0.0);
  EXPECT_EQ(serial.parallel_tasks, 0);
  EXPECT_FALSE(serial.stall_fallback);
  EXPECT_EQ(serial.factorizations, 1);
  EXPECT_EQ(serial.leases_granted, 0);
  EXPECT_EQ(serial.lease_denied, 0);
  EXPECT_EQ(serial.rhs_solved, 0);
  EXPECT_EQ(serial.solve_seconds, 0.0);

  // solve: only the solve totals move.
  solver.solve(std::vector<double>(256, 1.0));
  const SolverStats solved = solver.stats();
  expect_analyze_section_eq(solved, analyzed);
  expect_plan_section_eq(solved, planned);
  expect_run_section_eq(solved, serial);
  EXPECT_EQ(solved.factorizations, 1);
  EXPECT_EQ(solved.rhs_solved, 1);
  EXPECT_GT(solved.solve_seconds, 0.0);

  // factorize, parallel engine: the run section is replaced, the totals
  // grow.
  solver.factorize(matrix, workers_options(2));
  const SolverStats parallel = solver.stats();
  expect_analyze_section_eq(parallel, analyzed);
  expect_plan_section_eq(parallel, planned);
  EXPECT_EQ(parallel.engine, "parallel");
  EXPECT_EQ(parallel.admission, "greedy");
  EXPECT_EQ(parallel.workers, 2);
  EXPECT_EQ(parallel.flops, serial.flops);
  EXPECT_GT(parallel.measured_peak_entries, 0);
  EXPECT_LE(parallel.measured_peak_entries, parallel.modeled_peak_entries);
  EXPECT_GT(parallel.factorize_seconds, 0.0);
  EXPECT_GT(parallel.parallel_speedup, 0.0);
  EXPECT_GT(parallel.parallel_tasks, 0);
  EXPECT_LE(parallel.parallel_tasks, tree.size());
  EXPECT_FALSE(parallel.stall_fallback);
  EXPECT_EQ(parallel.factorizations, 2);
  EXPECT_EQ(parallel.leases_granted, 0);
  EXPECT_EQ(parallel.lease_denied, 0);
  EXPECT_EQ(parallel.rhs_solved, 1);
  EXPECT_EQ(parallel.solve_seconds, solved.solve_seconds);

  // Re-plan under a budget that forces spills: the plan section is
  // rebuilt, the latest run and the totals stay.
  const Weight floor = std::max(tree.max_mem_req(), tree.file_size(tree.root()));
  ASSERT_LT(floor, optimum);
  PlanOptions tight;
  tight.memory_budget = (floor + optimum) / 2;
  solver.plan(tight);
  const SolverStats replanned = solver.stats();
  expect_analyze_section_eq(replanned, analyzed);
  EXPECT_NE(replanned.strategy.find("/out-of-core"), std::string::npos);
  EXPECT_EQ(replanned.memory_budget, tight.memory_budget);
  EXPECT_EQ(replanned.planned_peak_entries, tight.memory_budget);
  EXPECT_EQ(replanned.in_core_optimum, optimum);
  EXPECT_EQ(replanned.best_postorder_peak, postorder_peak);
  EXPECT_GT(replanned.planned_io_volume, 0);
  EXPECT_GT(replanned.plan_seconds, 0.0);
  expect_run_section_eq(replanned, parallel);
  expect_totals_eq(replanned, parallel);

  // factorize, out-of-core engine.
  solver.factorize(matrix, workers_options(4));
  const SolverStats spilled = solver.stats();
  expect_analyze_section_eq(spilled, analyzed);
  expect_plan_section_eq(spilled, replanned);
  EXPECT_EQ(spilled.engine, "out-of-core");
  EXPECT_EQ(spilled.admission, "");
  EXPECT_EQ(spilled.workers, 1);
  EXPECT_EQ(spilled.flops, serial.flops);
  EXPECT_GT(spilled.measured_peak_entries, 0);
  EXPECT_LE(spilled.measured_peak_entries, tight.memory_budget);
  EXPECT_EQ(spilled.modeled_peak_entries, tight.memory_budget);
  EXPECT_GT(spilled.factorize_seconds, 0.0);
  EXPECT_EQ(spilled.parallel_speedup, 0.0);
  EXPECT_EQ(spilled.parallel_tasks, 0);
  EXPECT_FALSE(spilled.stall_fallback);
  EXPECT_EQ(spilled.factorizations, 3);
  EXPECT_EQ(spilled.leases_granted, 0);
  EXPECT_EQ(spilled.lease_denied, 0);
  EXPECT_EQ(spilled.rhs_solved, 1);
  EXPECT_EQ(spilled.solve_seconds, solved.solve_seconds);

  // adopt: a tenant that already served another pattern takes the
  // analyze and plan sections from the adopted state, drops its latest
  // run, and keeps its totals.
  const SparsePattern other = symmetrize(gen::grid2d(6, 6));
  Solver tenant;
  tenant.analyze(other).plan().factorize(make_spd_matrix(other, 7),
                                         workers_options(1));
  tenant.solve(std::vector<double>(36, 1.0));
  const SolverStats before_adopt = tenant.stats();
  ASSERT_EQ(before_adopt.factorizations, 1);
  ASSERT_EQ(before_adopt.rhs_solved, 1);
  tenant.adopt(solver.symbolic());
  const SolverStats adopted = tenant.stats();
  expect_analyze_section_eq(adopted, analyzed);
  expect_plan_section_eq(adopted, replanned);
  expect_run_section_empty(adopted);
  expect_totals_eq(adopted, before_adopt);

  // analyze again: everything but the analyze section starts over.
  solver.analyze(pattern, nd_options());
  const SolverStats reanalyzed = solver.stats();
  EXPECT_EQ(reanalyzed.n, analyzed.n);
  EXPECT_EQ(reanalyzed.factor_nnz, analyzed.factor_nnz);
  EXPECT_EQ(reanalyzed.tree_nodes, analyzed.tree_nodes);
  expect_plan_section_empty(reanalyzed);
  expect_run_section_empty(reanalyzed);
  expect_totals_eq(reanalyzed, SolverStats{});
}

TEST(SolverStatsView, LeaseTotalsMatchThePoolOnEveryEngine) {
  // A zero volume gate makes every trailing-update panel ask the private
  // pool for workers, so each engine leases on a small grid.
  const SparsePattern pattern = symmetrize(gen::grid3d(8, 8, 8, true));
  const SymmetricMatrix matrix = make_spd_matrix(pattern, 5);
  WorkerPool pool(3);
  Solver solver;
  solver.analyze(pattern, nd_options()).plan();

  for (const int workers : {1, 4}) {
    FactorizeOptions options = workers_options(workers);
    options.kernel.workers = 4;
    options.kernel.min_parallel_volume = 0;
    options.kernel.pool = &pool;
    const SolverStats before = solver.stats();
    const WorkerPoolStats pool_before = pool.stats();
    solver.factorize(matrix, options);
    const SolverStats after = solver.stats();
    const WorkerPoolStats pool_after = pool.stats();
    const long long granted = after.leases_granted - before.leases_granted;
    const long long denied = after.lease_denied - before.lease_denied;
    EXPECT_GT(granted + denied, 0) << after.engine << " w=" << workers;
    EXPECT_EQ(granted, pool_after.leases_granted - pool_before.leases_granted)
        << after.engine << " w=" << workers;
    EXPECT_EQ(denied, pool_after.leases_denied - pool_before.leases_denied)
        << after.engine << " w=" << workers;
  }
}

}  // namespace
}  // namespace treemem
