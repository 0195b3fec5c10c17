#include "perf/corpus.hpp"

#include <algorithm>
#include <cmath>

#include "solver/solver.hpp"
#include "sparse/generators.hpp"
#include "symbolic/symbolic.hpp"
#include "tree/generators.hpp"

namespace treemem {

namespace {

Index scaled(double scale, Index base) {
  return std::max<Index>(2, static_cast<Index>(std::llround(base * std::sqrt(scale))));
}

}  // namespace

std::vector<CorpusMatrix> build_corpus_matrices(const CorpusOptions& options) {
  TM_CHECK(options.scale > 0.0, "corpus: scale must be positive");
  Prng prng(options.seed);
  std::vector<CorpusMatrix> out;
  const double s = options.scale;

  auto add = [&](std::string name, SparsePattern pattern) {
    out.push_back({std::move(name), symmetrize(pattern)});
  };

  // 2-D grids (regular, anisotropic, 9-point).
  add("grid2d-40", gen::grid2d(scaled(s, 40), scaled(s, 40)));
  add("grid2d-64", gen::grid2d(scaled(s, 64), scaled(s, 64)));
  add("grid2d-wide", gen::grid2d(scaled(s, 120), scaled(s, 18)));
  add("grid2d-9pt", gen::grid2d(scaled(s, 48), scaled(s, 48), true));

  // 2-D grids with holes (irregular FEM-ish domains).
  add("grid2d-holes-10", gen::grid2d_with_holes(scaled(s, 56), scaled(s, 56), 0.10, prng));
  add("grid2d-holes-30", gen::grid2d_with_holes(scaled(s, 64), scaled(s, 64), 0.30, prng));

  // 3-D grids.
  add("grid3d-12", gen::grid3d(scaled(s, 12), scaled(s, 12), scaled(s, 12)));
  add("grid3d-16", gen::grid3d(scaled(s, 16), scaled(s, 16), scaled(s, 8)));
  add("grid3d-27pt", gen::grid3d(scaled(s, 10), scaled(s, 10), scaled(s, 10), true));

  // Random symmetric patterns in the paper's nnz/row regime (>= 2.5).
  {
    const Index n1 = scaled(s, 45) * scaled(s, 45);
    add("rand-sparse", gen::random_symmetric(n1, 3.0, prng));
    const Index n2 = scaled(s, 40) * scaled(s, 40);
    add("rand-mid", gen::random_symmetric(n2, 6.0, prng));
    const Index n3 = scaled(s, 30) * scaled(s, 30);
    add("rand-dense", gen::random_symmetric(n3, 12.0, prng));
  }

  // Banded (thinned) matrices.
  {
    const Index n = scaled(s, 55) * scaled(s, 55);
    add("band-16", gen::banded(n, 16, 0.25, prng));
    add("band-48", gen::banded(scaled(s, 38) * scaled(s, 38), 48, 0.10, prng));
  }

  // Arrowhead.
  add("arrow", gen::arrowhead(scaled(s, 40) * scaled(s, 40), 12));

  // Block tridiagonal.
  add("blocktri-sparse",
      gen::block_tridiagonal(scaled(s, 48), scaled(s, 24), 0.08, prng));
  add("blocktri-dense",
      gen::block_tridiagonal(scaled(s, 24), scaled(s, 40), 0.25, prng));

  return out;
}

std::vector<CorpusInstance> build_corpus_instances(const CorpusOptions& options) {
  const std::vector<CorpusMatrix> matrices = build_corpus_matrices(options);
  std::vector<CorpusInstance> out;
  for (const CorpusMatrix& m : matrices) {
    for (const OrderingChoice ordering :
         {OrderingChoice::kMinDegree, OrderingChoice::kNestedDissection}) {
      // Orderings are deterministic per matrix; reuse across relax values.
      const SparsePattern permuted = permute_symmetric(
          m.pattern, fill_reducing_order(m.pattern, ordering));
      const std::vector<Index> parent = elimination_tree(permuted);
      const std::vector<Index> counts = column_counts(permuted, parent);
      for (const Index relax : options.relax_values) {
        AssemblyTreeOptions at;
        at.relax = relax;
        at.merge_chains = false;  // the paper's relaxed trees
        CorpusInstance inst;
        inst.name = m.name + "/" + to_string(ordering) + "/r" +
                    std::to_string(relax);
        inst.matrix = m.name;
        inst.ordering = ordering;
        inst.relax = relax;
        inst.tree = amalgamate(parent, counts, at).tree;
        inst.matrix_n = m.pattern.cols();
        inst.matrix_nnz = m.pattern.nnz();
        out.push_back(std::move(inst));
      }
    }
  }
  return out;
}

NumericInstance build_numeric_instance(const CorpusMatrix& source,
                                       OrderingChoice ordering, Index relax,
                                       std::uint64_t seed) {
  Solver solver;
  solver.analyze(source.pattern, {.ordering = ordering, .relax = relax});
  return {.name = source.name + "/" + to_string(ordering) + "/r" +
                  std::to_string(relax),
          .matrix_name = source.name,
          .ordering = ordering,
          .relax = relax,
          .matrix = make_spd_matrix(source.pattern, seed)
                        .permuted(solver.permutation()),
          .assembly = solver.assembly()};
}

std::vector<CorpusMatrix> smallest_corpus_matrices(const CorpusOptions& options,
                                                   std::size_t count) {
  std::vector<CorpusMatrix> matrices = build_corpus_matrices(options);
  std::stable_sort(matrices.begin(), matrices.end(),
                   [](const CorpusMatrix& a, const CorpusMatrix& b) {
                     return a.pattern.cols() < b.pattern.cols();
                   });
  if (matrices.size() > count) {
    matrices.resize(count);
  }
  return matrices;
}

std::vector<NumericInstance> build_numeric_instances(
    const CorpusOptions& options, std::size_t max_matrices) {
  TM_CHECK(!options.relax_values.empty(),
           "build_numeric_instances: need at least one relax value");
  const std::vector<CorpusMatrix> matrices =
      smallest_corpus_matrices(options, max_matrices);
  const Index relax = options.relax_values.front();
  std::vector<NumericInstance> out;
  out.reserve(matrices.size() * 2);
  for (const CorpusMatrix& m : matrices) {
    for (const OrderingChoice ordering :
         {OrderingChoice::kMinDegree, OrderingChoice::kNestedDissection}) {
      out.push_back(
          build_numeric_instance(m, ordering, relax, options.seed));
    }
  }
  return out;
}

std::vector<CorpusInstance> build_random_weight_instances(
    const CorpusOptions& options, int replicas) {
  TM_CHECK(replicas >= 1, "corpus: need at least one replica");
  const std::vector<CorpusInstance> base = build_corpus_instances(options);
  std::vector<CorpusInstance> out;
  out.reserve(base.size() * static_cast<std::size_t>(replicas));
  Prng prng(options.seed ^ 0x5eedf00dULL);
  for (const CorpusInstance& inst : base) {
    for (int r = 0; r < replicas; ++r) {
      CorpusInstance copy = inst;
      copy.name = inst.name + "/rw" + std::to_string(r);
      copy.tree = gen::with_random_paper_weights(inst.tree, prng);
      out.push_back(std::move(copy));
    }
  }
  return out;
}

}  // namespace treemem
