#include "parallel/schedule_core.hpp"

#include <algorithm>

#include "core/check.hpp"
#include "core/minmem.hpp"
#include "core/postorder.hpp"

namespace treemem {

const char* to_string(ParallelPriority priority) {
  switch (priority) {
    case ParallelPriority::kCriticalPath:
      return "critical-path";
    case ParallelPriority::kPostorder:
      return "postorder";
    case ParallelPriority::kSmallestWork:
      return "smallest-work";
  }
  return "?";
}

const char* to_string(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kGreedy:
      return "greedy";
    case AdmissionPolicy::kLookahead:
      return "lookahead";
  }
  return "?";
}

std::vector<double> default_task_durations(const Tree& tree) {
  std::vector<double> durations(static_cast<std::size_t>(tree.size()));
  for (NodeId i = 0; i < tree.size(); ++i) {
    durations[static_cast<std::size_t>(i)] = static_cast<double>(
        std::max<Weight>(1, tree.work_size(i) + tree.file_size(i)));
  }
  return durations;
}

std::vector<double> compute_priority_ranks(
    const Tree& tree, ParallelPriority priority,
    const std::vector<double>& durations) {
  const auto p = static_cast<std::size_t>(tree.size());
  TM_CHECK(durations.size() == p, "durations size mismatch");
  std::vector<double> rank(p, 0.0);
  switch (priority) {
    case ParallelPriority::kCriticalPath: {
      // Bottom level: duration of the path from the node to the root.
      for (const NodeId u : tree.top_down_order()) {
        rank[static_cast<std::size_t>(u)] =
            durations[static_cast<std::size_t>(u)] +
            (u == tree.root()
                 ? 0.0
                 : rank[static_cast<std::size_t>(tree.parent(u))]);
      }
      break;
    }
    case ParallelPriority::kPostorder: {
      // Earlier in the (bottom-up) best postorder = higher priority.
      const Traversal po = reverse_traversal(best_postorder(tree).order);
      for (std::size_t t = 0; t < po.size(); ++t) {
        rank[static_cast<std::size_t>(po[t])] = static_cast<double>(p - t);
      }
      break;
    }
    case ParallelPriority::kSmallestWork: {
      for (std::size_t i = 0; i < p; ++i) {
        rank[i] = -durations[i];
      }
      break;
    }
  }
  return rank;
}

bool MemoryAccountant::try_acquire(Weight delta) {
  Weight observed = current_.load(std::memory_order_relaxed);
  while (true) {
    if (budget_ < kInfiniteWeight && observed + delta > budget_) {
      return false;
    }
    if (current_.compare_exchange_weak(observed, observed + delta,
                                       std::memory_order_relaxed)) {
      raise_peak(observed + delta);
      return true;
    }
  }
}

void MemoryAccountant::raise_peak(Weight observed) {
  Weight peak = peak_.load(std::memory_order_relaxed);
  while (observed > peak &&
         !peak_.compare_exchange_weak(peak, observed,
                                      std::memory_order_relaxed)) {
  }
}

ScheduleCore::ScheduleCore(const Tree& tree, const ParallelOptions& options,
                           const std::vector<double>& durations)
    : tree_(&tree),
      admission_(options.admission),
      rank_(compute_priority_ranks(tree, options.priority, durations)),
      missing_children_(static_cast<std::size_t>(tree.size())),
      memory_(options.memory_budget) {
  TM_CHECK(options.workers >= 1, "need at least one worker");
  for (const double d : durations) {
    TM_CHECK(d > 0.0, "durations must be positive");
  }
  for (NodeId i = 0; i < tree.size(); ++i) {
    missing_children_[static_cast<std::size_t>(i)] = tree.num_children(i);
    if (tree.is_leaf(i)) {
      ready_.push_back(i);
    }
  }
  std::make_heap(ready_.begin(), ready_.end(), heap_order());

  // With an infinite budget every admission test is vacuously true; skip the
  // witness machinery entirely so the front-ends pay nothing for the
  // default uncapped runs.
  if (options.memory_budget >= kInfiniteWeight || tree.size() == 0) {
    admission_ = AdmissionPolicy::kGreedy;
  }
  if (admission_ == AdmissionPolicy::kGreedy) {
    return;
  }
  witness_ = options.serial_witness.empty()
                 ? reverse_traversal(minmem_optimal(tree).order)
                 : options.serial_witness;
  // Validates the witness structurally (bottom-up permutation) and yields
  // its serial Eq. 1 peak — the budget floor below which no admission
  // policy can promise progress.
  witness_peak_ = in_tree_traversal_peak(tree, witness_);
  const auto p = static_cast<std::size_t>(tree.size());
  started_.assign(p, 0);
  finished_flag_.assign(p, 0);
}

bool ScheduleCore::all_tasks_fit() const {
  if (memory_.budget() >= kInfiniteWeight) {
    return true;
  }
  for (NodeId i = 0; i < tree_->size(); ++i) {
    if (transient(i) > memory_.budget()) {
      return false;
    }
  }
  return true;
}

bool ScheduleCore::schedule_feasible() const {
  if (!all_tasks_fit()) {
    return false;
  }
  if (admission_ == AdmissionPolicy::kGreedy) {
    return true;
  }
  return witness_peak_ <= memory_.budget();
}

bool ScheduleCore::lookahead_admits(NodeId candidate, Weight delta) const {
  // Hypothetical occupancy once the candidate has started and every running
  // task (candidate included) has drained to its output file: the resident
  // set the serial continuation below would run on top of.
  Weight mem = memory_.current() + delta + drain_sum_ +
               (tree_->file_size(candidate) - transient(candidate));
  const Weight budget = memory_.budget();
  // Replay the unfinished remainder serially in witness order. Children of
  // each replayed node are resident by then: finished children's files are
  // in memory_.current(), running children's arrive via the drain terms,
  // and unstarted children replay first (the witness is bottom-up). Only
  // starts are gated — between-step residents are not budget-checked,
  // matching the at-dispatch accounting of the real scheduler.
  for (std::size_t k = frontier_; k < witness_.size(); ++k) {
    const NodeId u = witness_[k];
    const auto ui = static_cast<std::size_t>(u);
    if (finished_flag_[ui] || started_[ui] || u == candidate) {
      continue;
    }
    const Weight start_occ =
        mem + tree_->work_size(u) + tree_->file_size(u);
    if (start_occ > budget) {
      return false;
    }
    mem = start_occ - tree_->work_size(u) - tree_->child_file_sum(u);
  }
  return true;
}

void ScheduleCore::commit_start(NodeId i) {
  if (admission_ == AdmissionPolicy::kGreedy) {
    return;
  }
  started_[static_cast<std::size_t>(i)] = 1;
  drain_sum_ += tree_->file_size(i) - transient(i);
}

void ScheduleCore::push_ready(NodeId i) {
  ready_.push_back(i);
  std::push_heap(ready_.begin(), ready_.end(), heap_order());
}

NodeId ScheduleCore::try_start() {
  NodeId started = kNoNode;
  while (!ready_.empty()) {
    // Candidates leave the heap best first, so the first admissible one is
    // the highest-priority admissible task.
    std::pop_heap(ready_.begin(), ready_.end(), heap_order());
    const NodeId i = ready_.back();
    ready_.pop_back();
    // Starting i converts its children files from resident storage into
    // part of its transient; the admission delta is n_i + f_i.
    const Weight delta = tree_->work_size(i) + tree_->file_size(i);
    // The policy check is pure, so a refusal leaves no state to unwind;
    // only then is the budget actually committed.
    const bool admitted =
        admission_ == AdmissionPolicy::kGreedy || lookahead_admits(i, delta);
    if (admitted && memory_.try_acquire(delta)) {
      commit_start(i);
      started = i;
      break;
    }
    refused_.push_back(i);  // inadmissible now; try a lower-priority task
  }
  for (const NodeId i : refused_) {
    push_ready(i);
  }
  refused_.clear();
  return started;
}

void ScheduleCore::finish(NodeId i) {
  // Free the transient, keep the output file resident.
  memory_.adjust(tree_->file_size(i) - transient(i));
  ++finished_;
  if (admission_ != AdmissionPolicy::kGreedy) {
    const auto ii = static_cast<std::size_t>(i);
    drain_sum_ -= tree_->file_size(i) - transient(i);
    finished_flag_[ii] = 1;
    // Advance the witness frontier past everything finished.
    while (frontier_ < witness_.size() &&
           finished_flag_[static_cast<std::size_t>(witness_[frontier_])]) {
      ++frontier_;
    }
  }
  const NodeId parent = tree_->parent(i);
  if (parent != kNoNode &&
      --missing_children_[static_cast<std::size_t>(parent)] == 0) {
    push_ready(parent);
  }
}

}  // namespace treemem
