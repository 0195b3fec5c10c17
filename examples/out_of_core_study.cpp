// Out-of-core study: for one assembly tree, sweep the memory budget from
// the bare minimum (max MemReq) up to the optimal in-core peak and print
// the I/O volume each eviction heuristic pays at every budget — the
// memory/I-O trade-off curve an out-of-core multifrontal solver navigates.
//
//   $ ./out_of_core_study [grid_side] [steps]
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "core/minio.hpp"
#include "core/minmem.hpp"
#include "core/postorder.hpp"
#include "order/ordering.hpp"
#include "sparse/generators.hpp"
#include "support/ascii_plot.hpp"
#include "support/text_table.hpp"
#include "symbolic/assembly_tree.hpp"

using namespace treemem;

int main(int argc, char** argv) {
  const Index side = argc > 1 ? static_cast<Index>(std::atoi(argv[1])) : 40;
  const int steps = argc > 2 ? std::atoi(argv[2]) : 8;
  TM_CHECK(side >= 2 && steps >= 2, "usage: out_of_core_study [side] [steps]");

  // Build one instance: grid -> min-degree -> assembly tree (relax 4).
  const SparsePattern a = symmetrize(gen::grid2d(side, side));
  const SparsePattern permuted = permute_symmetric(
      a, fill_reducing_order(a, OrderingChoice::kMinDegree));
  AssemblyTreeOptions at_options;
  at_options.relax = 4;
  const Tree tree = build_assembly_tree(permuted, at_options).tree;

  const MinMemResult mm = minmem_optimal(tree);
  const Weight lo = std::max(tree.max_mem_req(), tree.file_size(tree.root()));
  std::cout << "assembly tree: " << tree.size() << " nodes\n"
            << "hard floor (max MemReq): " << lo << "\n"
            << "optimal in-core peak:    " << mm.peak << "\n"
            << "traversal: MinMem's optimal order\n\n";
  if (lo >= mm.peak) {
    std::cout << "this instance never needs more than its floor — pick a "
                 "larger grid.\n";
    return 0;
  }

  TextTable table({"memory", "% of peak", "LSNF", "FirstFit", "BestFit",
                   "FirstFill", "BestFill", "BestK", "divisible bound"});
  std::vector<PlotSeries> curves(all_eviction_policies().size());
  for (std::size_t k = 0; k < curves.size(); ++k) {
    curves[k].label = to_string(all_eviction_policies()[k]);
  }
  for (int s = 0; s <= steps; ++s) {
    const Weight memory = lo + (mm.peak - lo) * s / steps;
    std::vector<std::string> row{std::to_string(memory)};
    {
      std::ostringstream pct;
      pct << std::fixed << std::setprecision(1)
          << 100.0 * static_cast<double>(memory) / static_cast<double>(mm.peak)
          << "%";
      row.push_back(pct.str());
    }
    for (std::size_t k = 0; k < all_eviction_policies().size(); ++k) {
      const MinIoResult res = minio_heuristic(tree, mm.order, memory,
                                              all_eviction_policies()[k]);
      TM_CHECK(res.feasible, "heuristic infeasible above the floor");
      row.push_back(std::to_string(res.io_volume));
      curves[k].x.push_back(static_cast<double>(memory));
      curves[k].y.push_back(static_cast<double>(res.io_volume));
    }
    row.push_back(std::to_string(divisible_io_lower_bound(tree, mm.order, memory)));
    table.add_row(std::move(row));
  }
  std::cout << table.to_string();

  PlotOptions plot;
  plot.x_label = "memory budget";
  plot.y_label = "I/O volume";
  plot.height = 16;
  std::cout << "\n" << render_ascii_plot(curves, plot);
  std::cout << "every unit of memory below the in-core peak buys I/O; the\n"
               "divisible bound shows how far the heuristics are from the\n"
               "fractional optimum for this traversal.\n";
  return 0;
}
