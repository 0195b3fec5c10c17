#include <algorithm>
#include <cstdint>
#include <numeric>

#include "order/ordering.hpp"

namespace treemem {

std::vector<Index> natural_order(Index n) {
  std::vector<Index> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), Index{0});
  return perm;
}

std::vector<Index> random_order(Index n, Prng& prng) {
  std::vector<Index> perm = natural_order(n);
  prng.shuffle(perm);
  return perm;
}

namespace {

/// Vertex degree excluding the diagonal.
Index off_degree(const SparsePattern& a, Index v) {
  Index d = static_cast<Index>(a.column(v).size());
  if (a.has_entry(v, v)) {
    --d;
  }
  return d;
}

/// Vertex marks that clear in O(1): a vertex is marked iff its stamp
/// equals the current epoch, so clear() bumps the epoch instead of
/// rewriting n entries.
class VisitMarks {
 public:
  explicit VisitMarks(Index n) : stamp_(static_cast<std::size_t>(n), 0) {}

  void clear() {
    if (++epoch_ == 0) {  // wrapped: stale stamps could alias the epoch
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }
  void mark(Index v) { stamp_[static_cast<std::size_t>(v)] = epoch_; }
  bool marked(Index v) const {
    return stamp_[static_cast<std::size_t>(v)] == epoch_;
  }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 1;
};

/// BFS level structures over a region of the graph. The visit marks and
/// the level buffers persist across searches, so one search costs time in
/// the part of the region it reaches, not O(n).
class LevelBfs {
 public:
  explicit LevelBfs(Index n) : seen_(n) {}

  /// BFS from `start` over the vertices with in_region(v); the levels are
  /// concatenated in vertices(), level l spanning
  /// [level_ptr()[l], level_ptr()[l + 1]).
  template <class InRegion>
  void run(const SparsePattern& a, Index start, const InRegion& in_region) {
    seen_.clear();
    vertices_.clear();
    level_ptr_.clear();
    vertices_.push_back(start);
    seen_.mark(start);
    level_ptr_.push_back(0);
    std::size_t level_begin = 0;
    while (level_begin < vertices_.size()) {
      const std::size_t level_end = vertices_.size();
      for (std::size_t k = level_begin; k < level_end; ++k) {
        for (const Index w : a.column(vertices_[k])) {
          if (in_region(w) && !seen_.marked(w)) {
            seen_.mark(w);
            vertices_.push_back(w);
          }
        }
      }
      if (vertices_.size() == level_end) {
        break;  // no new level
      }
      level_ptr_.push_back(level_end);
      level_begin = level_end;
    }
    level_ptr_.push_back(vertices_.size());
  }

  /// A vertex of (approximately) maximal eccentricity in the component of
  /// `start`: repeat BFS from the last level's min-degree vertex until the
  /// eccentricity stops growing (George–Liu). Leaves the level structure
  /// rooted at the returned vertex.
  template <class InRegion>
  Index pseudo_peripheral(const SparsePattern& a, Index start,
                          const InRegion& in_region) {
    Index v = start;
    std::size_t depth = 0;
    for (int round = 0; round < 8; ++round) {
      run(a, v, in_region);
      if (levels() <= depth) {
        return v;
      }
      depth = levels();
      // Min-degree vertex of the last level.
      Index best = vertices_[level_ptr_[depth - 1]];
      for (std::size_t k = level_ptr_[depth - 1]; k < level_ptr_[depth];
           ++k) {
        if (off_degree(a, vertices_[k]) < off_degree(a, best)) {
          best = vertices_[k];
        }
      }
      v = best;
    }
    run(a, v, in_region);
    return v;
  }

  std::size_t levels() const { return level_ptr_.size() - 1; }
  const std::vector<Index>& vertices() const { return vertices_; }
  const std::vector<std::size_t>& level_ptr() const { return level_ptr_; }
  /// Whether the last search reached v.
  bool reached(Index v) const { return seen_.marked(v); }

 private:
  VisitMarks seen_;
  std::vector<Index> vertices_;         // concatenated levels
  std::vector<std::size_t> level_ptr_;  // offsets per level
};

}  // namespace

std::vector<Index> rcm_order(const SparsePattern& a) {
  TM_CHECK(a.is_square(), "rcm_order: pattern must be square");
  const Index n = a.cols();
  std::vector<Index> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<char> visited(static_cast<std::size_t>(n), 0);
  std::vector<Index> buffer;
  LevelBfs bfs(n);
  const auto unvisited = [&](Index v) {
    return !visited[static_cast<std::size_t>(v)];
  };

  for (Index seed = 0; seed < n; ++seed) {
    if (visited[static_cast<std::size_t>(seed)]) {
      continue;
    }
    const Index start = bfs.pseudo_peripheral(a, seed, unvisited);
    // Cuthill–McKee BFS with degree-sorted neighbour expansion.
    std::size_t head = order.size();
    order.push_back(start);
    visited[static_cast<std::size_t>(start)] = 1;
    while (head < order.size()) {
      const Index v = order[head++];
      buffer.clear();
      for (const Index w : a.column(v)) {
        if (!visited[static_cast<std::size_t>(w)]) {
          visited[static_cast<std::size_t>(w)] = 1;
          buffer.push_back(w);
        }
      }
      std::sort(buffer.begin(), buffer.end(), [&](Index x, Index y) {
        const Index dx = off_degree(a, x);
        const Index dy = off_degree(a, y);
        return dx != dy ? dx < dy : x < y;
      });
      order.insert(order.end(), buffer.begin(), buffer.end());
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

std::vector<Index> nested_dissection_order(
    const SparsePattern& a, const NestedDissectionOptions& options) {
  TM_CHECK(a.is_square(), "nested_dissection_order: pattern must be square");
  TM_CHECK(options.leaf_size >= 1, "nested_dissection_order: bad leaf size");
  const Index n = a.cols();
  std::vector<Index> perm;
  perm.reserve(static_cast<std::size_t>(n));

  // Explicit recursion: each frame owns a vertex subset. Separator vertices
  // are emitted after both halves, giving elimination order part,part,sep.
  struct Frame {
    std::vector<Index> vertices;
    std::vector<Index> separator;  // emitted when the frame finishes
    bool expanded = false;
  };
  std::vector<Frame> stack;

  // Seed one frame per connected component-ish region: just one frame with
  // all vertices; BFS inside handles disconnection.
  {
    Frame top;
    top.vertices.resize(static_cast<std::size_t>(n));
    std::iota(top.vertices.begin(), top.vertices.end(), Index{0});
    stack.push_back(std::move(top));
  }

  // Scratch shared by all frames; each frame touches only its own vertices.
  VisitMarks in_frame(n);  // the current frame's subset (the BFS region)
  const auto in_region = [&](Index v) { return in_frame.marked(v); };
  LevelBfs bfs(n);
  std::vector<Index> local_of(static_cast<std::size_t>(n), -1);

  // Appends `vertices` in the minimum-degree order of their induced
  // subgraph (the leaf ordering, for quality).
  const auto append_min_degree = [&](const std::vector<Index>& vertices) {
    for (std::size_t k = 0; k < vertices.size(); ++k) {
      local_of[static_cast<std::size_t>(vertices[k])] = static_cast<Index>(k);
    }
    std::vector<std::pair<Index, Index>> entries;
    for (const Index v : vertices) {
      const Index lv = local_of[static_cast<std::size_t>(v)];
      entries.emplace_back(lv, lv);
      for (const Index w : a.column(v)) {
        const Index lw = local_of[static_cast<std::size_t>(w)];
        if (lw >= 0) {
          entries.emplace_back(lw, lv);
        }
      }
    }
    for (const Index v : vertices) {
      local_of[static_cast<std::size_t>(v)] = -1;
    }
    const auto size = static_cast<Index>(vertices.size());
    const SparsePattern sub =
        SparsePattern::from_coo(size, size, std::move(entries));
    for (const Index lk : min_degree_order(sub)) {
      perm.push_back(vertices[static_cast<std::size_t>(lk)]);
    }
  };

  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.expanded) {
      // Children done; emit the separator (min-degree order within it would
      // need a quotient graph — natural order is standard for level-set ND).
      perm.insert(perm.end(), frame.separator.begin(), frame.separator.end());
      stack.pop_back();
      continue;
    }
    frame.expanded = true;

    if (frame.vertices.empty()) {
      stack.pop_back();
      continue;
    }
    if (static_cast<Index>(frame.vertices.size()) <= options.leaf_size) {
      const std::vector<Index> vertices = std::move(frame.vertices);
      stack.pop_back();
      append_min_degree(vertices);
      continue;
    }

    // Find a separator: BFS level structure from a pseudo-peripheral vertex
    // of the (largest piece of the) subset, cut at the median level.
    in_frame.clear();
    for (const Index v : frame.vertices) {
      in_frame.mark(v);
    }
    bfs.pseudo_peripheral(a, frame.vertices.front(), in_region);
    const std::vector<Index>& reached = bfs.vertices();
    const std::vector<std::size_t>& level_ptr = bfs.level_ptr();
    const std::size_t levels = bfs.levels();

    std::vector<Index> separator;
    std::vector<Index> below;
    std::vector<Index> above;
    if (reached.size() < frame.vertices.size()) {
      // Disconnected subset: peel the reached piece off as "below", the
      // rest as "above", no separator.
      below = reached;
      for (const Index v : frame.vertices) {
        if (!bfs.reached(v)) {
          above.push_back(v);
        }
      }
    } else if (levels <= 2) {
      // Connected but shallow: fall back to min-degree on the whole subset
      // by shrinking the leaf threshold locally.
      const std::vector<Index> vertices = std::move(frame.vertices);
      stack.pop_back();
      append_min_degree(vertices);
      continue;
    } else {
      // Median level becomes the separator.
      std::size_t mid = 1;
      const std::size_t half = reached.size() / 2;
      while (mid + 1 < levels && level_ptr[mid + 1] < half) {
        ++mid;
      }
      const auto level_begin = [&](std::size_t l) {
        return reached.begin() + static_cast<std::ptrdiff_t>(level_ptr[l]);
      };
      below.assign(reached.begin(), level_begin(mid));
      separator.assign(level_begin(mid), level_begin(mid + 1));
      above.assign(level_begin(mid + 1), reached.end());
    }

    frame.separator = std::move(separator);
    // Push halves; they complete before the separator is emitted.
    Frame lo;
    lo.vertices = std::move(below);
    Frame hi;
    hi.vertices = std::move(above);
    stack.push_back(std::move(lo));
    stack.push_back(std::move(hi));
  }

  check_permutation(perm, n);
  return perm;
}

}  // namespace treemem
