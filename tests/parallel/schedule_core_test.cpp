// ScheduleCore against a reference implementation.
//
// ReferenceSchedule below keeps the ready set as a vector sorted by
// priority: try_start scans it best first and erases the first admissible
// task, finish inserts a readied parent at its sorted position. Both cost
// O(|ready|), but the decisions are obviously right. ScheduleCore keeps the
// ready set as a binary heap and must take exactly the same decisions:
// every try_start returns the same node, and occupancy and peak agree
// after every step. The drivers interleave starts and finishes at random
// (seeded), across all priorities, both admission policies, and infinite
// and tight finite budgets.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "core/minmem.hpp"
#include "parallel/schedule_core.hpp"
#include "support/prng.hpp"
#include "test_util.hpp"

namespace treemem {
namespace {

using testing::seeded_random_tree;

/// The sorted-vector scheduler, with the same admission rules as
/// ScheduleCore (see schedule_core.hpp).
class ReferenceSchedule {
 public:
  ReferenceSchedule(const Tree& tree, ParallelPriority priority,
                    Weight budget, const std::vector<double>& durations,
                    AdmissionPolicy admission)
      : tree_(&tree),
        admission_(admission),
        budget_(budget),
        rank_(compute_priority_ranks(tree, priority, durations)),
        missing_children_(static_cast<std::size_t>(tree.size())) {
    for (NodeId i = 0; i < tree.size(); ++i) {
      missing_children_[static_cast<std::size_t>(i)] = tree.num_children(i);
      if (tree.is_leaf(i)) {
        ready_.push_back(i);
      }
    }
    std::sort(ready_.begin(), ready_.end(),
              [this](NodeId a, NodeId b) { return before(a, b); });
    if (budget >= kInfiniteWeight || tree.size() == 0) {
      admission_ = AdmissionPolicy::kGreedy;
    }
    if (admission_ == AdmissionPolicy::kLookahead) {
      witness_ = reverse_traversal(minmem_optimal(tree).order);
      const auto p = static_cast<std::size_t>(tree.size());
      started_.assign(p, 0);
      finished_.assign(p, 0);
    }
  }

  NodeId try_start() {
    for (std::size_t k = 0; k < ready_.size(); ++k) {
      const NodeId i = ready_[k];
      const Weight delta = tree_->work_size(i) + tree_->file_size(i);
      const bool admitted = admission_ == AdmissionPolicy::kGreedy ||
                            lookahead_admits(i, delta);
      const bool fits =
          budget_ >= kInfiniteWeight || current_ + delta <= budget_;
      if (!admitted || !fits) {
        continue;
      }
      current_ += delta;
      peak_ = std::max(peak_, current_);
      if (admission_ == AdmissionPolicy::kLookahead) {
        started_[static_cast<std::size_t>(i)] = 1;
        drain_sum_ += tree_->file_size(i) - transient(i);
      }
      ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(k));
      return i;
    }
    return kNoNode;
  }

  void finish(NodeId i) {
    current_ += tree_->file_size(i) - transient(i);
    if (admission_ == AdmissionPolicy::kLookahead) {
      drain_sum_ -= tree_->file_size(i) - transient(i);
      finished_[static_cast<std::size_t>(i)] = 1;
      while (frontier_ < witness_.size() &&
             finished_[static_cast<std::size_t>(witness_[frontier_])]) {
        ++frontier_;
      }
    }
    const NodeId parent = tree_->parent(i);
    if (parent != kNoNode &&
        --missing_children_[static_cast<std::size_t>(parent)] == 0) {
      ready_.insert(std::upper_bound(ready_.begin(), ready_.end(), parent,
                                     [this](NodeId a, NodeId b) {
                                       return before(a, b);
                                     }),
                    parent);
    }
  }

  Weight current() const { return current_; }
  Weight peak() const { return peak_; }

 private:
  Weight transient(NodeId i) const {
    return tree_->child_file_sum(i) + tree_->work_size(i) +
           tree_->file_size(i);
  }

  bool before(NodeId a, NodeId b) const {
    const double ra = rank_[static_cast<std::size_t>(a)];
    const double rb = rank_[static_cast<std::size_t>(b)];
    return ra != rb ? ra > rb : a < b;
  }

  bool lookahead_admits(NodeId candidate, Weight delta) const {
    Weight mem = current_ + delta + drain_sum_ +
                 (tree_->file_size(candidate) - transient(candidate));
    for (std::size_t k = frontier_; k < witness_.size(); ++k) {
      const NodeId u = witness_[k];
      const auto ui = static_cast<std::size_t>(u);
      if (finished_[ui] || started_[ui] || u == candidate) {
        continue;
      }
      const Weight start_occ = mem + tree_->work_size(u) + tree_->file_size(u);
      if (start_occ > budget_) {
        return false;
      }
      mem = start_occ - tree_->work_size(u) - tree_->child_file_sum(u);
    }
    return true;
  }

  const Tree* tree_;
  AdmissionPolicy admission_;
  Weight budget_;
  std::vector<double> rank_;
  std::vector<NodeId> missing_children_;
  std::vector<NodeId> ready_;  ///< sorted by priority (best first)
  Weight current_ = 0;
  Weight peak_ = 0;
  Traversal witness_;
  std::size_t frontier_ = 0;
  Weight drain_sum_ = 0;
  std::vector<char> started_;
  std::vector<char> finished_;
};

/// Random positive durations with many ties (small integers), so the
/// smaller-id tie-break is exercised under every priority.
std::vector<double> random_durations(const Tree& tree, Prng& prng) {
  std::vector<double> durations(static_cast<std::size_t>(tree.size()));
  for (double& d : durations) {
    d = static_cast<double>(prng.uniform_int(1, 6));
  }
  return durations;
}

/// Runs both schedulers side by side. Each step tries a start (always when
/// nothing runs) or, when none is tried or admitted, finishes a random
/// running task. Every try_start must pick the same node.
/// Returns the number of nodes started (p unless the schedule stalled).
std::size_t run_in_lockstep(const Tree& tree, ParallelPriority priority,
                            AdmissionPolicy admission, Weight budget,
                            const std::vector<double>& durations,
                            Prng& prng) {
  ScheduleCore core(tree,
                    {.memory_budget = budget,
                     .priority = priority,
                     .admission = admission},
                    durations);
  ReferenceSchedule reference(tree, priority, budget, durations, admission);
  if (!core.schedule_feasible()) {
    return 0;
  }
  std::vector<NodeId> running;
  std::size_t started = 0;
  while (!core.done()) {
    NodeId got = kNoNode;
    if (running.empty() || prng.uniform_int(0, 2) != 0) {
      const NodeId expected = reference.try_start();
      got = core.try_start();
      EXPECT_EQ(got, expected) << "after " << started << " starts";
      if (got != expected || (got == kNoNode && running.empty())) {
        return started;  // diverged, or both stalled
      }
    }
    if (got != kNoNode) {
      running.push_back(got);
      ++started;
    } else {
      const auto k = static_cast<std::size_t>(prng.uniform_int(
          0, static_cast<std::int64_t>(running.size()) - 1));
      const NodeId node = running[k];
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(k));
      core.finish(node);
      reference.finish(node);
    }
    EXPECT_EQ(core.current_memory(), reference.current());
    EXPECT_EQ(core.peak_memory(), reference.peak());
  }
  EXPECT_FALSE(core.has_ready());
  return started;
}

class ScheduleCoreOracle
    : public ::testing::TestWithParam<
          std::tuple<ParallelPriority, AdmissionPolicy>> {};

TEST_P(ScheduleCoreOracle, HeapTakesTheSortedScansDecisions) {
  const auto [priority, admission] = GetParam();
  std::size_t completed = 0;
  std::size_t stalled = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Prng prng(seed * 7919 + static_cast<std::uint64_t>(priority) * 31 +
              static_cast<std::uint64_t>(admission));
    const Tree tree =
        seeded_random_tree(seed * 104729, static_cast<NodeId>(2 + seed * 3));
    const std::vector<double> durations = random_durations(tree, prng);
    const Weight optimum = minmem_optimal(tree).peak;
    // Infinite; the MinMem optimum (the tightest budget lookahead accepts,
    // and one where greedy often stalls); a little above it.
    for (const Weight budget :
         {kInfiniteWeight, optimum, optimum + optimum / 4}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " budget " << budget);
      const std::size_t started = run_in_lockstep(
          tree, priority, admission, budget, durations, prng);
      if (::testing::Test::HasFailure()) {
        return;
      }
      if (started == static_cast<std::size_t>(tree.size())) {
        ++completed;
      } else {
        ++stalled;
      }
    }
  }
  EXPECT_GT(completed, 0u);
  if (admission == AdmissionPolicy::kLookahead) {
    EXPECT_EQ(stalled, 0u);  // never stalls at budget >= the witness peak
  }
}

INSTANTIATE_TEST_SUITE_P(
    PriorityByAdmission, ScheduleCoreOracle,
    ::testing::Combine(::testing::Values(ParallelPriority::kCriticalPath,
                                         ParallelPriority::kPostorder,
                                         ParallelPriority::kSmallestWork),
                       ::testing::Values(AdmissionPolicy::kGreedy,
                                         AdmissionPolicy::kLookahead)),
    [](const auto& info) {
      std::string name = std::string(to_string(std::get<0>(info.param))) +
                         "_" + to_string(std::get<1>(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace treemem
