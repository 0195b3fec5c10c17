// Fill-reducing orderings.
//
// The paper orders every matrix with MeTiS (nested dissection) and with
// Matlab's amd (minimum degree) before building elimination trees
// (Section VI-B). This module provides both families from scratch:
//   * min_degree_order  — quotient-graph minimum degree with element
//     absorption, supervariable merging and AMD-style approximate external
//     degrees (an AMD-class code);
//   * nested_dissection_order — recursive level-set bisection with
//     minimum-degree leaf ordering (a MeTiS-class morphology), its frames
//     run on the worker pool;
//   * rcm_order / natural_order / random_order — profile-style baselines.
//
// fill_reducing_order is the one dispatch over the choices a caller can
// name (OrderingChoice): the solver's analyze phase, the experiment
// corpus and the examples all order through it.
//
// Convention: an ordering `perm` lists original indices in elimination
// order — perm[k] is the original column eliminated k-th (Matlab's
// A(p,p)). Use invert_permutation for old→new maps.
#pragma once

#include "sparse/pattern.hpp"
#include "support/prng.hpp"

namespace treemem {

/// Identity ordering.
std::vector<Index> natural_order(Index n);

/// Uniformly random ordering (baseline for fill studies).
std::vector<Index> random_order(Index n, Prng& prng);

/// Reverse Cuthill–McKee: BFS from a pseudo-peripheral vertex with
/// degree-sorted neighbour visits, reversed. Bandwidth/profile reducer.
/// `pattern` must be symmetric with full diagonal.
std::vector<Index> rcm_order(const SparsePattern& pattern);

/// Quotient-graph minimum-degree ordering (AMD-class): approximate
/// external degrees, element absorption and supervariable merging over one
/// flat index array. `pattern` must be symmetric.
std::vector<Index> min_degree_order(const SparsePattern& pattern);

/// Options for nested dissection.
struct NestedDissectionOptions {
  /// Subgraphs at or below this size are ordered by minimum degree.
  Index leaf_size = 64;
};

/// Recursive bisection by BFS level-structure separators, with
/// minimum-degree leaves. `pattern` must be symmetric.
///
/// Frames run in parallel: each frame owns a fixed range of the
/// permutation (its `above` half first, then its `below` half, then its
/// separator), so the halves of a frame are independent. `workers` is the
/// parallel width, counted the way parallel_for counts it: the calling
/// thread included, 0 meaning the worker pool's size, and the frames run
/// on leased pool workers (inline when none is idle). Large frames are
/// split and their halves shared; frames of a few thousand vertices run
/// their whole subtree on one participant. The permutation does not depend
/// on the width or on the schedule: every width returns the serial order.
std::vector<Index> nested_dissection_order(
    const SparsePattern& pattern, const NestedDissectionOptions& options = {},
    unsigned workers = 0);

/// The orderings a caller can choose by name. The values are stored as one
/// byte in symbolic state files (solver/symbolic_store.hpp), so new
/// enumerators go at the end.
enum class OrderingChoice {
  kNatural,          ///< the pattern as given (already permuted outside)
  kRcm,
  kMinDegree,        ///< AMD-class (the paper's `amd` runs)
  kNestedDissection, ///< MeTiS-class (the paper's MeTiS runs)
};

/// "natural", "rcm", "mindeg" or "nd".
const char* to_string(OrderingChoice choice);

/// The permutation `choice` gives `pattern` (symmetric). `workers` is the
/// parallel width of nested dissection, counted as there (0 = the worker
/// pool's size); no ordering's permutation depends on it.
std::vector<Index> fill_reducing_order(const SparsePattern& pattern,
                                       OrderingChoice choice,
                                       unsigned workers = 0);

}  // namespace treemem
