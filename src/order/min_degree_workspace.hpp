// The flat quotient graph behind min_degree_order and the leaves of
// nested_dissection_order (internal to the order module).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sparse/pattern.hpp"

namespace treemem {

/// Quotient-graph minimum degree over one flat index array, in the
/// Amestoy–Davis–Duff layout of AMD. Every vertex i owns the segment
/// iw[pe[i], pe[i] + len[i]): for a variable, its elen[i] adjacent elements
/// followed by its adjacent variables; for an element, its variables.
/// Eliminating p appends the new element L_p behind the used part of iw and
/// rewrites the list of every member of L_p in place (each loses p or an
/// absorbed element, and gains only p), so the used part grows only by the
/// element lists and is compacted when the elbow room runs out.
///
/// The pivot rule: the variable of minimum approximate external degree,
/// the smaller id on ties. Degrees are AMD's approximation, computed with
/// the one-pass |L_e \ L_p| trick and capped by the exact-fill bound;
/// variables of L_p with identical adjacency merge into supervariables,
/// the smallest id absorbing the others in ascending order.
///
/// One workspace serves any number of sequential orderings and keeps its
/// arrays between them, so the leaves of one dissection allocate nothing
/// after the first few. Not thread-safe: one workspace per thread.
class MinDegreeWorkspace {
 public:
  /// Orders the graph on the vertices [0, n) and writes the elimination
  /// order into perm[0, n). adjacency(v, add) reports v's neighbours, one
  /// add(w) per neighbour w != v without repeats; the graph must be
  /// symmetric.
  template <class Adjacency>
  void order(Index n, const Adjacency& adjacency, Index* perm) {
    begin(n);
    for (Index v = 0; v < n; ++v) {
      const auto start = static_cast<std::int64_t>(iw_.size());
      pe_[static_cast<std::size_t>(v)] = start;
      adjacency(v, [this](Index w) { iw_.push_back(w); });
      len_[static_cast<std::size_t>(v)] =
          static_cast<Index>(static_cast<std::int64_t>(iw_.size()) - start);
    }
    run(perm);
  }

 private:
  enum class State : char { kAlive, kElement, kMerged, kDead };

  void begin(Index n);
  void run(Index* perm);
  Index pop_min_degree();
  void eliminate(Index p);
  void merge_indistinguishable(std::int64_t lp_begin, std::int64_t lp_end);
  bool same_adjacency(Index i, Index j);
  void absorb(Index i, Index j);
  void compact();
  Index next_stamp();

  Index n_ = 0;
  std::vector<Index> iw_;          ///< the segments, then the elbow room
  std::int64_t pfree_ = 0;         ///< first free slot of iw_
  std::vector<std::int64_t> pe_;   ///< segment start
  std::vector<Index> len_;         ///< segment length
  std::vector<Index> elen_;        ///< elements at the front of a variable's
  std::vector<Index> nv_;          ///< supervariable size
  std::vector<Index> degree_;      ///< approximate external degree
  std::vector<State> state_;
  std::vector<Index> next_member_;  ///< original columns of a supervariable,
  std::vector<Index> last_member_;  ///< linked from the supervariable's id
  std::vector<Index> mark_;         ///< == stamp_: in the current set
  Index stamp_ = 0;
  std::vector<std::int64_t> external_;  ///< |L_e \ L_p| while eliminating p
  std::vector<Index> external_mark_;    ///< == stamp of the pivot: valid
  std::vector<std::pair<Index, Index>> heap_;  ///< (degree, id), lazy
  std::vector<std::pair<std::uint64_t, Index>> buckets_;  ///< (hash, id)
  Index* perm_ = nullptr;
  Index emitted_ = 0;
};

}  // namespace treemem
