// The experiment corpus: synthetic sparse matrices standing in for the
// paper's 291 University of Florida matrices, and the
// matrix → ordering → elimination tree → assembly tree pipeline that turns
// them into instances (Section VI-B; substitution rationale in DESIGN.md
// §4). Two slices:
//   * the traversal corpus (build_corpus_instances) keeps the paper's
//     relaxed trees: it builds them with AssemblyTreeOptions::merge_chains
//     off;
//   * the numeric corpus (build_numeric_instance[s]) analyzes through
//     Solver::analyze, so the benches and tests that factor it run exactly
//     the permutation and front structure the solver builds.
// Both order through fill_reducing_order (order/ordering.hpp).
//
// Everything is seeded and deterministic: corpus(i) is the same instance on
// every machine and every run.
#pragma once

#include <string>
#include <vector>

#include "multifrontal/numeric.hpp"
#include "order/ordering.hpp"
#include "sparse/pattern.hpp"
#include "support/prng.hpp"
#include "symbolic/assembly_tree.hpp"
#include "tree/tree.hpp"

namespace treemem {

/// One source matrix of the corpus.
struct CorpusMatrix {
  std::string name;
  SparsePattern pattern;  ///< symmetrized, full diagonal
};

/// One traversal-problem instance: a weighted assembly tree plus provenance.
struct CorpusInstance {
  std::string name;       ///< "<matrix>/<ordering>/r<relax>"
  std::string matrix;
  OrderingChoice ordering;
  Index relax = 1;
  Tree tree;
  Index matrix_n = 0;
  std::int64_t matrix_nnz = 0;
};

struct CorpusOptions {
  /// Scale factor on matrix dimensions (1.0 = default sizes of roughly
  /// 1.5k–20k; the paper used 2e4–2e5 — set 4.0+ to approach that regime
  /// at matching runtime cost).
  double scale = 1.0;
  /// Amalgamation parameters to instantiate per (matrix, ordering), as in
  /// the paper (1, 2, 4, and 16 for the largest matrices).
  std::vector<Index> relax_values = {1, 2, 4, 16};
  /// Base seed for all randomized generators.
  std::uint64_t seed = 20110516;  // IPDPS 2011
};

/// The deterministic matrix family (25 matrices across 7 structural
/// classes: 2-D/3-D grids, punched grids, random, banded, arrowhead,
/// block-tridiagonal).
std::vector<CorpusMatrix> build_corpus_matrices(const CorpusOptions& options = {});

/// The `count` *smallest* corpus matrices by dimension (stable order) —
/// the one slicing rule shared by build_numeric_instances and the
/// numeric benches, so the two cannot drift.
std::vector<CorpusMatrix> smallest_corpus_matrices(
    const CorpusOptions& options = {}, std::size_t count = 5);

/// The full instance set: every matrix × ordering × relax value.
std::vector<CorpusInstance> build_corpus_instances(
    const CorpusOptions& options = {});

/// The random-weight variant of Section VI-E: same tree structures,
/// weights redrawn as n_i ∈ [1, p/500], f_i ∈ [1, p]. `replicas` re-rolls
/// per structure multiply the case count (the paper reaches >3200 trees).
std::vector<CorpusInstance> build_random_weight_instances(
    const CorpusOptions& options = {}, int replicas = 2);

/// One *numeric* pipeline instance: seeded SPD values on a corpus pattern,
/// permuted by the chosen ordering, plus the assembly tree built on the
/// permuted pattern — everything multifrontal_cholesky / factor_parallel
/// consume. The weighted tree (instance.assembly.tree) carries the same
/// n_i/f_i the scheduling experiments use, so modeled and measured memory
/// speak the same units.
struct NumericInstance {
  std::string name;  ///< "<matrix>/<ordering>/r<relax>"
  std::string matrix_name;
  OrderingChoice ordering;
  Index relax = 1;
  SymmetricMatrix matrix;  ///< permuted: factor this directly
  AssemblyTree assembly;   ///< built on matrix.pattern()
};

/// Builds the numeric instance of one corpus matrix under one ordering and
/// amalgamation level: Solver::analyze with that ordering and relax gives
/// the permutation and the (chain-merged) assembly tree. `source.pattern`
/// must be symmetric with a full diagonal. Deterministic in `seed`.
NumericInstance build_numeric_instance(const CorpusMatrix& source,
                                       OrderingChoice ordering, Index relax,
                                       std::uint64_t seed);

/// Numeric instances for the `max_matrices` *smallest* corpus matrices (by
/// dimension) under `options`, one per (matrix, ordering) pair with the
/// first relax value of `options.relax_values` — the corpus slice the
/// parallel-numeric bench and tests sweep.
std::vector<NumericInstance> build_numeric_instances(
    const CorpusOptions& options = {}, std::size_t max_matrices = 5);

}  // namespace treemem
