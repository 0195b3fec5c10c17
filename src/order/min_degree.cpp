// Quotient-graph minimum-degree ordering (AMD-class).
//
// The quotient graph represents the partially eliminated matrix implicitly:
// eliminated pivots become *elements* whose variable lists stand for the
// cliques their elimination created. Each surviving (super)variable i keeps
// its adjacent elements and its adjacent supervariables via original
// entries, and the fill neighbourhood of i is its variables ∪ ⋃ vars(e)
// over its elements e.
//
// Per pivot p: form the new element L_p, absorb the elements adjacent to p,
// prune covered variable-variable edges, update AMD's approximate external
// degrees (computed with the one-pass |L_e \ L_p| trick), and merge
// indistinguishable supervariables found by adjacency hashing. Ties break
// toward the smaller vertex id, making the ordering deterministic. The
// storage is one flat index array (min_degree_workspace.hpp).
#include "order/min_degree_workspace.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "order/ordering.hpp"

namespace treemem {

namespace {
using Weight = std::int64_t;
}  // namespace

void MinDegreeWorkspace::begin(Index n) {
  n_ = n;
  const auto size = static_cast<std::size_t>(n);
  iw_.clear();
  if (pe_.size() < size) {
    pe_.resize(size);
    len_.resize(size);
    elen_.resize(size);
    nv_.resize(size);
    degree_.resize(size);
    state_.resize(size);
    next_member_.resize(size);
    last_member_.resize(size);
    mark_.resize(size, 0);
    external_.resize(size);
    external_mark_.resize(size, 0);
  }
}

Index MinDegreeWorkspace::next_stamp() {
  if (stamp_ == std::numeric_limits<Index>::max()) {
    // Stale stamps could alias the wrapped epoch: clear them.
    std::fill(mark_.begin(), mark_.end(), 0);
    std::fill(external_mark_.begin(), external_mark_.end(), 0);
    stamp_ = 0;
  }
  return ++stamp_;
}

void MinDegreeWorkspace::run(Index* perm) {
  // Elbow room of at least n slots: the live lists never outgrow the
  // original adjacency, so after a compaction any L_p (≤ n entries) fits.
  const auto used = static_cast<std::int64_t>(iw_.size());
  iw_.resize(static_cast<std::size_t>(used + used / 5 + n_ + 1));
  pfree_ = used;
  heap_.clear();
  for (Index v = 0; v < n_; ++v) {
    const auto k = static_cast<std::size_t>(v);
    elen_[k] = 0;
    nv_[k] = 1;
    degree_[k] = len_[k];
    state_[k] = State::kAlive;
    next_member_[k] = -1;
    last_member_[k] = v;
    heap_.emplace_back(len_[k], v);
  }
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>());

  perm_ = perm;
  emitted_ = 0;
  Index eliminated = 0;
  while (eliminated < n_) {
    const Index p = pop_min_degree();
    eliminate(p);
    eliminated += nv_[static_cast<std::size_t>(p)];
  }
  perm_ = nullptr;
}

Index MinDegreeWorkspace::pop_min_degree() {
  // Lazy deletion: an entry is current iff its vertex is alive with that
  // degree, and every alive vertex has its current entry in the heap.
  while (true) {
    TM_ASSERT(!heap_.empty(), "min-degree heap exhausted early");
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const auto [deg, v] = heap_.back();
    heap_.pop_back();
    const auto k = static_cast<std::size_t>(v);
    if (state_[k] == State::kAlive && degree_[k] == deg) {
      return v;
    }
  }
}

void MinDegreeWorkspace::eliminate(Index p) {
  const auto sp = static_cast<std::size_t>(p);
  // Emit all original columns merged into supervariable p.
  for (Index v = p; v != -1; v = next_member_[static_cast<std::size_t>(v)]) {
    perm_[emitted_++] = v;
  }

  // L_p is appended at pfree_; make room for its largest possible size.
  std::int64_t bound = len_[sp] - elen_[sp];
  for (std::int64_t r = pe_[sp]; r < pe_[sp] + elen_[sp]; ++r) {
    const auto e = static_cast<std::size_t>(iw_[static_cast<std::size_t>(r)]);
    if (state_[e] == State::kElement) {
      bound += len_[e];
    }
  }
  if (pfree_ + std::min<std::int64_t>(bound, n_) >
      static_cast<std::int64_t>(iw_.size())) {
    compact();
  }

  // L_p: the alive variables adjacent to p directly or through an element.
  const Index in_lp = next_stamp();
  mark_[sp] = in_lp;
  const std::int64_t lp_begin = pfree_;
  Weight lp_weight = 0;
  const auto visit = [&](Index v) {
    const auto k = static_cast<std::size_t>(v);
    if (state_[k] == State::kAlive && mark_[k] != in_lp) {
      mark_[k] = in_lp;
      iw_[static_cast<std::size_t>(pfree_++)] = v;
      lp_weight += nv_[k];
    }
  };
  const std::int64_t p_begin = pe_[sp];
  const std::int64_t p_elems_end = p_begin + elen_[sp];
  for (std::int64_t r = p_elems_end; r < p_begin + len_[sp]; ++r) {
    visit(iw_[static_cast<std::size_t>(r)]);
  }
  for (std::int64_t r = p_begin; r < p_elems_end; ++r) {
    const auto e = static_cast<std::size_t>(iw_[static_cast<std::size_t>(r)]);
    if (state_[e] == State::kElement) {
      for (std::int64_t q = pe_[e]; q < pe_[e] + len_[e]; ++q) {
        visit(iw_[static_cast<std::size_t>(q)]);
      }
    }
  }
  const std::int64_t lp_end = pfree_;

  // Absorb the elements adjacent to p: their cliques are subsets of L_p.
  for (std::int64_t r = p_begin; r < p_elems_end; ++r) {
    const auto e = static_cast<std::size_t>(iw_[static_cast<std::size_t>(r)]);
    if (state_[e] == State::kElement) {
      state_[e] = State::kDead;
      len_[e] = 0;
    }
  }

  // p becomes an element.
  state_[sp] = State::kElement;
  pe_[sp] = lp_begin;
  len_[sp] = static_cast<Index>(lp_end - lp_begin);
  elen_[sp] = 0;

  // One-pass |L_e \ L_p| computation (Amestoy–Davis–Duff): initialize
  // w[e] = |L_e| and subtract the weights of members also in L_p.
  const Index pivot = next_stamp();
  for (std::int64_t r = lp_begin; r < lp_end; ++r) {
    const auto i = static_cast<std::size_t>(iw_[static_cast<std::size_t>(r)]);
    for (std::int64_t q = pe_[i]; q < pe_[i] + elen_[i]; ++q) {
      const auto e = static_cast<std::size_t>(iw_[static_cast<std::size_t>(q)]);
      if (state_[e] != State::kElement) {
        continue;
      }
      if (external_mark_[e] != pivot) {
        Weight total = 0;
        for (std::int64_t t = pe_[e]; t < pe_[e] + len_[e]; ++t) {
          const auto v =
              static_cast<std::size_t>(iw_[static_cast<std::size_t>(t)]);
          if (state_[v] == State::kAlive) {
            total += nv_[v];
          }
        }
        external_[e] = total;
        external_mark_[e] = pivot;
      }
      external_[e] -= nv_[i];
    }
  }

  // Pass 1: prune the list of every member of L_p in place. Its live
  // elements stay, then p joins them; its variables lose p, the dead and
  // merged ones, and those covered by the new element (in L_p too).
  const Index covered = next_stamp();
  for (std::int64_t r = lp_begin; r < lp_end; ++r) {
    mark_[static_cast<std::size_t>(iw_[static_cast<std::size_t>(r)])] =
        covered;
  }
  for (std::int64_t r = lp_begin; r < lp_end; ++r) {
    const auto i = static_cast<std::size_t>(iw_[static_cast<std::size_t>(r)]);
    Index* const list = iw_.data() + pe_[i];
    Index elements = 0;
    for (Index q = 0; q < elen_[i]; ++q) {
      if (state_[static_cast<std::size_t>(list[q])] == State::kElement) {
        list[elements++] = list[q];
      }
    }
    Index variables = 0;
    for (Index q = elen_[i]; q < len_[i]; ++q) {
      const auto v = static_cast<std::size_t>(list[q]);
      if (state_[v] == State::kAlive && mark_[v] != covered) {
        list[elements + variables++] = list[q];
      }
    }
    TM_ASSERT(elements + variables < len_[i],
              "min-degree: a variable list grew (is the pattern symmetric?)");
    list[elements + variables] = list[elements];
    list[elements] = p;
    elen_[i] = elements + 1;
    len_[i] = elements + 1 + variables;
  }

  // Pass 2: recompute degrees. d_i ≈ |L_p \ i| + Σ_e |L_e \ L_p| + |alive
  // adj vars|, capped by both n and the exact-fill upper bound
  // d_old + |L_p \ i|.
  for (std::int64_t r = lp_begin; r < lp_end; ++r) {
    const Index v = iw_[static_cast<std::size_t>(r)];
    const auto i = static_cast<std::size_t>(v);
    const Index* const list = iw_.data() + pe_[i];
    Weight d = lp_weight - nv_[i];
    for (Index q = elen_[i]; q < len_[i]; ++q) {
      d += nv_[static_cast<std::size_t>(list[q])];
    }
    for (Index q = 0; q < elen_[i]; ++q) {
      const auto e = static_cast<std::size_t>(list[q]);
      if (e != sp && external_[e] > 0) {
        d += external_[e];
      }
    }
    const Weight cap = degree_[i] + lp_weight - nv_[i];
    d = std::min(d, cap);
    degree_[i] = static_cast<Index>(std::min<Weight>(d, n_));
    heap_.emplace_back(degree_[i], v);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }

  merge_indistinguishable(lp_begin, lp_end);
}

void MinDegreeWorkspace::merge_indistinguishable(std::int64_t lp_begin,
                                                 std::int64_t lp_end) {
  // Bucket by a cheap adjacency hash. Equal adjacency implies equal hash,
  // and pairs are compared in ascending id order within a bucket, so every
  // class of indistinguishable variables merges into its smallest id.
  buckets_.clear();
  for (std::int64_t r = lp_begin; r < lp_end; ++r) {
    const Index v = iw_[static_cast<std::size_t>(r)];
    const auto i = static_cast<std::size_t>(v);
    if (state_[i] != State::kAlive) {
      continue;
    }
    const Index* const list = iw_.data() + pe_[i];
    std::uint64_t h = 0;
    for (Index q = elen_[i]; q < len_[i]; ++q) {
      h += static_cast<std::uint64_t>(list[q]) * 0x9e3779b97f4a7c15ULL;
    }
    for (Index q = 0; q < elen_[i]; ++q) {
      h += static_cast<std::uint64_t>(list[q]) * 0xbf58476d1ce4e5b9ULL;
    }
    buckets_.emplace_back(h, v);
  }
  std::sort(buckets_.begin(), buckets_.end());
  for (std::size_t b = 0; b < buckets_.size();) {
    std::size_t e = b + 1;
    while (e < buckets_.size() && buckets_[e].first == buckets_[b].first) {
      ++e;
    }
    // Pairwise-compare within a bucket (buckets are tiny in practice).
    for (std::size_t x = b; x < e; ++x) {
      const Index i = buckets_[x].second;
      if (state_[static_cast<std::size_t>(i)] != State::kAlive) {
        continue;
      }
      for (std::size_t y = x + 1; y < e; ++y) {
        const Index j = buckets_[y].second;
        if (state_[static_cast<std::size_t>(j)] == State::kAlive &&
            same_adjacency(i, j)) {
          absorb(i, j);
        }
      }
    }
    b = e;
  }
}

bool MinDegreeWorkspace::same_adjacency(Index i, Index j) {
  // After pruning, both lists hold distinct live entries only (and neither
  // holds the other, both being in L_p), so equal sets means equal lengths
  // and every entry of j's list in i's. Element and variable ids never
  // coincide, so one mark covers both parts.
  const auto si = static_cast<std::size_t>(i);
  const auto sj = static_cast<std::size_t>(j);
  if (len_[si] != len_[sj] || elen_[si] != elen_[sj]) {
    return false;
  }
  const Index seen = next_stamp();
  const Index* const list_i = iw_.data() + pe_[si];
  for (Index q = 0; q < len_[si]; ++q) {
    mark_[static_cast<std::size_t>(list_i[q])] = seen;
  }
  const Index* const list_j = iw_.data() + pe_[sj];
  for (Index q = 0; q < len_[sj]; ++q) {
    if (mark_[static_cast<std::size_t>(list_j[q])] != seen) {
      return false;
    }
  }
  return true;
}

void MinDegreeWorkspace::absorb(Index i, Index j) {
  const auto si = static_cast<std::size_t>(i);
  const auto sj = static_cast<std::size_t>(j);
  state_[sj] = State::kMerged;
  nv_[si] += nv_[sj];
  next_member_[static_cast<std::size_t>(last_member_[si])] = j;
  last_member_[si] = last_member_[sj];
  len_[sj] = 0;
  elen_[sj] = 0;
}

void MinDegreeWorkspace::compact() {
  // Tag the first slot of every live segment with its owner (a negative
  // value, which no list entry is), parking the entry in pe; then one scan
  // slides the tagged segments down over the dead space.
  for (Index v = 0; v < n_; ++v) {
    const auto k = static_cast<std::size_t>(v);
    if ((state_[k] == State::kAlive || state_[k] == State::kElement) &&
        len_[k] > 0) {
      Index& first = iw_[static_cast<std::size_t>(pe_[k])];
      pe_[k] = first;
      first = -v - 1;
    }
  }
  std::int64_t dst = 0;
  for (std::int64_t q = 0; q < pfree_;) {
    const Index tag = iw_[static_cast<std::size_t>(q)];
    if (tag >= 0) {
      ++q;
      continue;
    }
    const auto k = static_cast<std::size_t>(-tag - 1);
    iw_[static_cast<std::size_t>(dst)] = static_cast<Index>(pe_[k]);
    std::copy(iw_.begin() + q + 1, iw_.begin() + q + len_[k],
              iw_.begin() + dst + 1);
    pe_[k] = dst;
    dst += len_[k];
    q += len_[k];
  }
  pfree_ = dst;
}

std::vector<Index> min_degree_order(const SparsePattern& a) {
  TM_CHECK(a.is_square(), "min_degree_order: pattern must be square");
  TM_CHECK(a.is_symmetric(), "min_degree_order: pattern must be symmetric");
  std::vector<Index> perm(static_cast<std::size_t>(a.cols()));
  if (a.cols() == 0) {
    return perm;
  }
  MinDegreeWorkspace workspace;
  workspace.order(
      a.cols(),
      [&](Index v, const auto& add) {
        for (const Index w : a.column(v)) {
          if (w != v) {
            add(w);
          }
        }
      },
      perm.data());
  check_permutation(perm, a.cols());
  return perm;
}

}  // namespace treemem
