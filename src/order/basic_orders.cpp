#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <optional>

#include "order/min_degree_workspace.hpp"
#include "order/ordering.hpp"
#include "parallel/worker_pool.hpp"
#include "support/parallel_for.hpp"

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
  void unmark(Index v) { stamp_[static_cast<std::size_t>(v)] = 0; }
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

namespace {

/// One frame of the dissection: a vertex subset and the range of perm it
/// fills, [offset, offset + vertices.size()).
struct Frame {
  std::vector<Index> vertices;
  std::size_t offset = 0;
};

/// One participant's scratch: each frame touches only its own vertices,
/// so a participant reuses it across all the frames it runs.
struct DissectionScratch {
  explicit DissectionScratch(Index n)
      : in_frame(n), bfs(n), local_of(static_cast<std::size_t>(n), -1) {}

  VisitMarks in_frame;  // the current frame's subset (the BFS region)
  LevelBfs bfs;
  std::vector<Index> local_of;  // leaf-local ids, -1 outside the leaf
  MinDegreeWorkspace leaf;
};

/// The recursion of nested dissection over one pattern. A frame's output
/// range follows from its subset sizes alone: the `above` half fills the
/// front of the range, the `below` half the next |below| slots and the
/// separator the end. So frames are independent, may run in any order on
/// any thread, and the permutation does not depend on either.
class Dissection {
 public:
  Dissection(const SparsePattern& a, Index leaf_size, std::vector<Index>& perm)
      : a_(a), leaf_size_(leaf_size), perm_(perm) {}

  /// Orders `frame` and its whole subtree.
  void order_subtree(Frame frame, DissectionScratch& scratch) const {
    std::vector<Frame> stack;
    stack.push_back(std::move(frame));
    while (!stack.empty()) {
      Frame top = std::move(stack.back());
      stack.pop_back();
      split(std::move(top), scratch, stack);
    }
  }

  /// Orders a leaf frame, or writes the frame's separator and appends its
  /// halves to `children`.
  ///
  /// A disconnected frame peels off the component of its first vertex as
  /// the `below` half, with the rest as the `above` half and no separator.
  /// The rest's components are components of the frame, so peeling them
  /// one after another from the same frame, each taking the end of what
  /// is left of the range, gives the frames that splitting the `above`
  /// halves one at a time would, in one pass over the frame.
  void split(Frame frame, DissectionScratch& scratch,
             std::vector<Frame>& children) const {
    std::vector<Index>& vertices = frame.vertices;
    if (vertices.empty()) {
      return;
    }
    VisitMarks& rest = scratch.in_frame;  // the BFS region: not peeled off
    rest.clear();
    for (const Index v : vertices) {
      rest.mark(v);
    }
    std::size_t rest_size = vertices.size();  // fills [offset, +rest_size)
    std::size_t first = 0;  // no vertex of the rest precedes vertices[first]
    LevelBfs& bfs = scratch.bfs;
    while (true) {
      if (static_cast<Index>(rest_size) <= leaf_size_) {
        order_rest(frame, scratch);
        return;
      }
      // Find a separator: BFS level structure from a pseudo-peripheral
      // vertex of the (largest piece of the) subset, cut at the median
      // level.
      while (!rest.marked(vertices[first])) {
        ++first;
      }
      bfs.pseudo_peripheral(a_, vertices[first],
                            [&](Index v) { return rest.marked(v); });
      const std::vector<Index>& reached = bfs.vertices();
      if (reached.size() == rest_size) {
        break;
      }
      rest_size -= reached.size();
      for (const Index v : reached) {
        rest.unmark(v);
      }
      children.push_back({reached, frame.offset + rest_size});
    }

    const std::vector<Index>& reached = bfs.vertices();
    const std::vector<std::size_t>& level_ptr = bfs.level_ptr();
    const std::size_t levels = bfs.levels();
    if (levels <= 2) {
      // Connected but shallow: fall back to min-degree on the whole subset
      // by shrinking the leaf threshold locally.
      order_rest(frame, scratch);
      return;
    }
    // Median level becomes the separator (natural order within it: a
    // min-degree order there would need a quotient graph).
    std::size_t mid = 1;
    const std::size_t half = reached.size() / 2;
    while (mid + 1 < levels && level_ptr[mid + 1] < half) {
      ++mid;
    }
    const auto level_begin = [&](std::size_t l) {
      return reached.begin() + static_cast<std::ptrdiff_t>(level_ptr[l]);
    };
    Frame below{{reached.begin(), level_begin(mid)}, 0};
    Frame above{{level_begin(mid + 1), reached.end()}, frame.offset};
    below.offset = frame.offset + above.vertices.size();
    // Elimination order above, below, separator.
    std::copy(level_begin(mid), level_begin(mid + 1),
              perm_.begin() + static_cast<std::ptrdiff_t>(
                                  below.offset + below.vertices.size()));
    children.push_back(std::move(below));
    children.push_back(std::move(above));
  }

 private:
  /// Writes the vertices of `frame` not peeled off (the marked ones), in
  /// the minimum-degree order of their induced subgraph (the leaf
  /// ordering, for quality), at the front of the frame's range.
  void order_rest(Frame& frame, DissectionScratch& scratch) const {
    std::vector<Index>& vertices = frame.vertices;
    std::erase_if(vertices,
                  [&](Index v) { return !scratch.in_frame.marked(v); });
    std::vector<Index>& local_of = scratch.local_of;
    for (std::size_t k = 0; k < vertices.size(); ++k) {
      local_of[static_cast<std::size_t>(vertices[k])] = static_cast<Index>(k);
    }
    Index* const out = perm_.data() + frame.offset;
    scratch.leaf.order(
        static_cast<Index>(vertices.size()),
        [&](Index k, const auto& add) {
          const Index v = vertices[static_cast<std::size_t>(k)];
          for (const Index w : a_.column(v)) {
            const Index lw = local_of[static_cast<std::size_t>(w)];
            if (lw >= 0 && w != v) {
              add(lw);
            }
          }
        },
        out);
    for (const Index v : vertices) {
      local_of[static_cast<std::size_t>(v)] = -1;
    }
    for (std::size_t k = 0; k < vertices.size(); ++k) {
      out[k] = vertices[static_cast<std::size_t>(out[k])];
    }
  }

  const SparsePattern& a_;
  Index leaf_size_;
  std::vector<Index>& perm_;
};

/// Frames of at most this many vertices run with their whole subtree on
/// the participant that takes them; larger ones are split and their halves
/// shared. Chosen from 512–16,384 at w = 4 on the 384² grid, the 27-point
/// 22³ grid and block_tridiagonal(256, 48) (4-core AVX2 Xeon), where 512
/// to 2,048 were fastest.
constexpr std::size_t kInlineFrame = 1024;

/// Runs the dissection on `width` participants sharing a queue of frames,
/// largest first. A participant splits a frame above kInlineFrame and
/// queues its halves, or orders a smaller one's whole subtree. While the
/// queue is empty but a split is under way, idle participants wait for its
/// halves; once the queue is empty and no split is under way, every frame
/// has been taken.
void dissect_in_parallel(const Dissection& dissection, Frame root, Index n,
                         unsigned width) {
  struct Shared {
    std::mutex mutex;
    std::condition_variable changed;
    std::vector<Frame> queue;  // a max-heap on the frame size
    int splitting = 0;
    bool failed = false;
  } shared;
  const auto smaller = [](const Frame& x, const Frame& y) {
    return x.vertices.size() < y.vertices.size();
  };
  shared.queue.push_back(std::move(root));

  parallel_for(
      width,
      [&](std::size_t) {
        std::optional<DissectionScratch> scratch;
        std::vector<Frame> children;
        while (true) {
          Frame frame;
          {
            std::unique_lock<std::mutex> lock(shared.mutex);
            shared.changed.wait(lock, [&] {
              return shared.failed || !shared.queue.empty() ||
                     shared.splitting == 0;
            });
            if (shared.failed || shared.queue.empty()) {
              return;
            }
            std::pop_heap(shared.queue.begin(), shared.queue.end(), smaller);
            frame = std::move(shared.queue.back());
            shared.queue.pop_back();
            if (frame.vertices.size() > kInlineFrame) {
              ++shared.splitting;
            }
          }
          try {
            if (!scratch) {
              scratch.emplace(n);
            }
            if (frame.vertices.size() <= kInlineFrame) {
              dissection.order_subtree(std::move(frame), *scratch);
              continue;
            }
            children.clear();
            dissection.split(std::move(frame), *scratch, children);
          } catch (...) {
            {
              std::lock_guard<std::mutex> lock(shared.mutex);
              shared.failed = true;
            }
            shared.changed.notify_all();
            throw;
          }
          {
            std::lock_guard<std::mutex> lock(shared.mutex);
            for (Frame& child : children) {
              shared.queue.push_back(std::move(child));
              std::push_heap(shared.queue.begin(), shared.queue.end(),
                             smaller);
            }
            --shared.splitting;
          }
          shared.changed.notify_all();
        }
      },
      width);
}

}  // namespace

std::vector<Index> nested_dissection_order(
    const SparsePattern& a, const NestedDissectionOptions& options,
    unsigned workers) {
  TM_CHECK(a.is_square(), "nested_dissection_order: pattern must be square");
  TM_CHECK(a.is_symmetric(),
           "nested_dissection_order: pattern must be symmetric");
  TM_CHECK(options.leaf_size >= 1, "nested_dissection_order: bad leaf size");
  const Index n = a.cols();
  std::vector<Index> perm(static_cast<std::size_t>(n));
  const Dissection dissection(a, options.leaf_size, perm);
  Frame root;
  root.vertices.resize(static_cast<std::size_t>(n));
  std::iota(root.vertices.begin(), root.vertices.end(), Index{0});

  const unsigned width =
      workers == 0 ? WorkerPool::instance().size() : workers;
  if (width <= 1 || root.vertices.size() <= kInlineFrame) {
    DissectionScratch scratch(n);
    dissection.order_subtree(std::move(root), scratch);
  } else {
    dissect_in_parallel(dissection, std::move(root), n, width);
  }
  check_permutation(perm, n);
  return perm;
}

const char* to_string(OrderingChoice choice) {
  switch (choice) {
    case OrderingChoice::kNatural:
      return "natural";
    case OrderingChoice::kRcm:
      return "rcm";
    case OrderingChoice::kMinDegree:
      return "mindeg";
    case OrderingChoice::kNestedDissection:
      return "nd";
  }
  return "?";
}

std::vector<Index> fill_reducing_order(const SparsePattern& pattern,
                                       OrderingChoice choice,
                                       unsigned workers) {
  switch (choice) {
    case OrderingChoice::kNatural:
      return natural_order(pattern.cols());
    case OrderingChoice::kRcm:
      return rcm_order(pattern);
    case OrderingChoice::kMinDegree:
      return min_degree_order(pattern);
    case OrderingChoice::kNestedDissection:
      return nested_dissection_order(pattern, {}, workers);
  }
  TM_CHECK(false, "fill_reducing_order: unknown ordering "
                      << static_cast<int>(choice));
  return {};
}

}  // namespace treemem
