// Quickstart, in two acts.
//
// Act 1 — the solver facade: the production entry point. Six lines take a
// sparse SPD system from pattern to solution through the phased
// analyze → plan → factorize → solve pipeline, with the paper's traversal
// planning deciding how the factorization walks the assembly tree.
//
// Act 2 — the model underneath: build a small task tree by hand, run the
// three MinMemory algorithms, check the results with Algorithm 1, and plan
// an out-of-core execution with Algorithm 2 (the exact example of
// tests/test_util.hpp: a root with two subtrees whose optimal traversal
// interleaves them).
//
//   $ ./quickstart
//
// Umbrella-header sanity: this program includes only treemem.hpp.
#include <iostream>

#include "treemem.hpp"

using namespace treemem;

void solver_facade_act() {
  std::cout << "=== Act 1: the solver facade ===\n\n";

  // An SPD system on a 16x16 grid Laplacian pattern.
  const SparsePattern pattern = symmetrize(gen::grid2d(16, 16));
  const SymmetricMatrix a = make_spd_matrix(pattern, /*seed=*/2011);
  const std::vector<double> b(static_cast<std::size_t>(pattern.cols()), 1.0);

  // The whole pipeline. Each phase reuses everything before it: analyze
  // once, then factorize/solve as many value sets and right-hand sides as
  // traffic brings.
  Solver solver;
  solver.analyze(pattern);  // ordering + assembly tree
  solver.plan();            // traversal + memory budget
  solver.factorize(a);      // numeric Cholesky
  const std::vector<double> x = solver.solve(b);

  const SolverStats& stats = solver.stats();
  std::cout << "n=" << stats.n << " nnz=" << stats.pattern_nnz
            << "  ->  nnz(L)=" << stats.factor_nnz << " ("
            << stats.tree_nodes << " supernodes, ordering "
            << stats.ordering << ")\n";
  std::cout << "plan: " << stats.strategy
            << ", modeled peak " << stats.planned_peak_entries
            << " entries (in-core optimum " << stats.in_core_optimum
            << ", best postorder " << stats.best_postorder_peak << ")\n";
  std::cout << "factorize: " << stats.engine
            << ", measured peak " << stats.measured_peak_entries
            << " <= modeled " << stats.modeled_peak_entries << ", "
            << stats.flops << " flops\n";

  // Verify the solution against the original (unpermuted) matrix.
  std::cout << "solve: ||Ax - b|| / ||b|| = " << relative_residual(a, x, b)
            << "\n\n";
}

void task_tree_act() {
  std::cout << "=== Act 2: the task-tree model underneath ===\n\n";

  // --- 1. Describe the task tree -------------------------------------------
  // Each task has an input file (from its parent) and an execution file.
  // The root's input can be empty.
  TreeBuilder builder;
  const NodeId root = builder.add_root(/*file=*/0, /*work=*/1);
  const NodeId left = builder.add_child(root, /*file=*/4, /*work=*/0);
  const NodeId right = builder.add_child(root, /*file=*/6, /*work=*/2);
  builder.add_child(left, /*file=*/2, /*work=*/0);
  builder.add_child(right, /*file=*/3, /*work=*/1);
  const Tree tree = std::move(builder).build();

  std::cout << "task tree (treemem text format):\n" << tree_to_string(tree);
  std::cout << "MemReq per node:";
  for (NodeId i = 0; i < tree.size(); ++i) {
    std::cout << ' ' << tree.mem_req(i);
  }
  std::cout << "\n\n";

  // --- 2. MinMemory: how much memory does an in-core run need? -------------
  const TraversalResult po = best_postorder(tree);     // Liu 1986
  const TraversalResult liu = liu_optimal(tree);       // Liu 1987, optimal
  const MinMemResult mm = minmem_optimal(tree);        // the paper's MinMem

  auto show = [&](const char* name, Weight peak, const Traversal& order) {
    std::cout << name << ": peak = " << peak << ", order =";
    for (const NodeId u : order) {
      std::cout << ' ' << u;
    }
    // Algorithm 1 double-checks feasibility at exactly this budget.
    const CheckResult check = check_in_core(tree, order, peak);
    std::cout << (check.feasible ? "  [Algorithm 1: OK]" : "  [INFEASIBLE!]")
              << "\n";
  };
  show("PostOrder", po.peak, po.order);
  show("LiuExact ", liu.peak, liu.order);
  show("MinMem   ", mm.peak, mm.order);

  // --- 3. MinIO: what if memory is short by a few units? -------------------
  const Weight budget = mm.peak - 1;
  std::cout << "\nout-of-core plan with memory " << budget << " (one below the "
            << "optimal in-core peak):\n";
  const MinIoResult io =
      minio_heuristic(tree, mm.order, budget, EvictionPolicy::kFirstFit);
  std::cout << "  FirstFit writes " << io.files_written
            << " file(s), I/O volume " << io.io_volume << "\n";
  for (const IoWrite& w : io.schedule.writes) {
    std::cout << "    before step " << w.step << ": write file of node "
              << w.node << " (size " << tree.file_size(w.node) << ")\n";
  }
  const CheckResult check = check_out_of_core(tree, io.schedule, budget);
  std::cout << "  Algorithm 2 check: "
            << (check.feasible ? "feasible" : check.reason)
            << ", volume " << check.io_volume << "\n";
}

int main() {
  solver_facade_act();
  task_tree_act();
  return 0;
}
