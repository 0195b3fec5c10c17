// Scheduling state shared by the parallel simulator and the threaded
// executor, and the one options/result contract both front-ends speak
// (ParallelOptions in, ParallelScheduleResult out).
//
// Both front-ends run the same memory-bounded list scheduling of the
// multifrontal task tree: a task is ready when all its children finished;
// while it runs it holds the Eq. 1 transient (children files + n_i + f_i);
// admission is gated on a shared budget M; ready tasks are tried in priority
// order, skipping those that do not currently fit. The simulator advances a
// virtual clock over modeled durations, the executor runs real threads over
// real payloads — but every scheduling decision (ready-set maintenance,
// transient accounting, priority comparison, admission) lives here so the
// two cannot drift.
//
// Admission is pluggable (AdmissionPolicy). The greedy policy admits any
// ready task that currently fits — eager subtree starts can strand resident
// contribution files and deadlock the schedule under a tight budget. The
// lookahead policy reasons against a *serial witness*: a bottom-up
// traversal whose serial Eq. 1 peak fits the budget (the planner's
// traversal, or the MinMem optimum when none is supplied). It admits a task
// only when doing so provably cannot strand resident files, so with
// budget >= the witness peak it can never stall.
//
// ScheduleCore itself is NOT thread-safe: the simulator drives it from its
// event loop and the executor serializes all calls under its scheduler
// mutex. The MemoryAccountant inside is atomic so memory/peak can be read
// concurrently without that lock (monitoring, result collection).
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "core/traversal.hpp"
#include "tree/tree.hpp"

namespace treemem {

enum class ParallelPriority {
  kCriticalPath,  ///< longest duration-weighted path to the root first
  kPostorder,     ///< follow the serial best-postorder order
  kSmallestWork,  ///< cheapest ready task first (greedy latency)
};

const char* to_string(ParallelPriority priority);

/// How the scheduler decides whether a fitting ready task may actually
/// start. Both policies share the same accounting and the same
/// measured <= modeled <= budget invariant; they differ only in which
/// admissions they refuse.
enum class AdmissionPolicy {
  /// Admit any ready task whose transient fits right now. Maximally eager;
  /// under a tight budget the eagerly started subtrees can strand resident
  /// files and deadlock the schedule (the stall the benches chart).
  kGreedy,
  /// Banker-style lookahead: before committing budget, simulate the serial
  /// completion of everything still pending (running tasks drain, then the
  /// unfinished remainder executes in witness order) and refuse the
  /// admission if that continuation would ever exceed the budget. Exact
  /// per-state safety; O(remaining nodes) per admission test. Never stalls
  /// when the budget covers the witness peak.
  kLookahead,
};

const char* to_string(AdmissionPolicy policy);

/// One scheduled task instance. The simulator fills modeled times, the
/// executor measured wall-clock seconds since the start of the run.
struct TaskInterval {
  NodeId node = kNoNode;
  int worker = -1;
  double start = 0.0;
  double finish = 0.0;
};

/// The schedule both front-ends run: the worker count, the shared memory
/// bound, the ready-task priority and the admission policy. The executor
/// wraps it in ExecutorOptions::schedule; the simulator takes it as is.
struct ParallelOptions {
  int workers = 4;
  /// Shared memory bound; kInfiniteWeight disables the constraint.
  Weight memory_budget = kInfiniteWeight;
  ParallelPriority priority = ParallelPriority::kCriticalPath;
  /// How ready tasks are admitted against the budget; lookahead consults
  /// `serial_witness` (see ScheduleCore) and never stalls when the budget
  /// covers its serial peak.
  AdmissionPolicy admission = AdmissionPolicy::kGreedy;
  /// Optional bottom-up witness traversal for the lookahead policy;
  /// empty = the MinMem optimum.
  Traversal serial_witness = {};
};

/// What a front-end run produced. The simulator reports modeled times,
/// the executor measured wall-clock seconds since the start of the run.
struct ParallelScheduleResult {
  /// False iff the schedule could not run to completion under the memory
  /// bound: some task can never start, the lookahead witness peak exceeds
  /// the budget, or the (greedy) schedule deadlocked mid-run.
  bool feasible = false;
  /// Time from the run's start to its last completion.
  double makespan = 0.0;
  /// Peak of the accounted shared-memory occupancy; never exceeds the
  /// budget on feasible runs.
  Weight peak_memory = 0;
  /// Σ task durations / makespan — the achieved parallel speedup.
  double speedup = 0.0;
  /// One interval per task, indexed by node (feasible runs only).
  std::vector<TaskInterval> gantt;
  /// Tasks in completion order — a valid bottom-up (in-tree) traversal
  /// (feasible runs only).
  Traversal completion_order;
};

/// Default task durations: proportional to the node's own footprint
/// (n_i + f_i, at least 1) — a flop-count proxy adequate for scheduling
/// studies.
std::vector<double> default_task_durations(const Tree& tree);

/// Priority keys for every node under `priority` (higher = scheduled
/// first); ties break toward the smaller node id.
std::vector<double> compute_priority_ranks(const Tree& tree,
                                           ParallelPriority priority,
                                           const std::vector<double>& durations);

/// Budget-gated memory accounting. Lock-free: `try_acquire` admits a task's
/// start delta only if it fits under the budget, `adjust` applies the
/// unconditional completion delta (transient freed, output file retained),
/// and `peak` tracks the largest admitted occupancy — the same
/// at-dispatch peak the paper's Eq. 1 checkers report.
class MemoryAccountant {
 public:
  explicit MemoryAccountant(Weight budget = kInfiniteWeight)
      : budget_(budget) {}

  Weight budget() const { return budget_; }

  /// Atomically adds `delta` iff the result stays within the budget.
  /// Updates the peak on success.
  bool try_acquire(Weight delta);

  /// Unconditional adjustment (task completion; may be negative or, for
  /// variant-model trees with n_i < 0, slightly positive — between-step
  /// residents are not budget-gated, exactly as in the serial model where
  /// peaks alone determine feasibility).
  void adjust(Weight delta) {
    current_.fetch_add(delta, std::memory_order_relaxed);
  }

  Weight current() const { return current_.load(std::memory_order_relaxed); }
  Weight peak() const { return peak_.load(std::memory_order_relaxed); }

 private:
  void raise_peak(Weight observed);

  Weight budget_;
  std::atomic<Weight> current_{0};
  std::atomic<Weight> peak_{0};
};

/// The shared scheduling state machine. Drive it with:
///   while (!done()) { id = try_start(); ... run the task ...; finish(id); }
/// interleaving starts and finishes as the front-end's clock (virtual or
/// real) dictates. `try_start() == kNoNode` with no task in flight means the
/// schedule is stuck: started subtrees stranded resident files and no ready
/// task is admissible — the instance is infeasible under this policy (the
/// lookahead policy never reaches that state when schedule_feasible() held
/// at the start).
class ScheduleCore {
 public:
  /// Throws treemem::Error unless options.workers >= 1 and `durations`
  /// holds one positive duration per node. `options.serial_witness`,
  /// consumed only by the lookahead policy, is a bottom-up traversal
  /// (children before parents, all p nodes) whose serial Eq. 1 peak
  /// should fit the budget — typically the planner's traversal. When
  /// empty, the MinMem optimum is computed internally, so any budget >=
  /// the serial optimal peak guarantees stall-freedom. With an infinite
  /// budget admission is vacuous and every policy degrades to greedy (no
  /// witness is computed).
  ScheduleCore(const Tree& tree, const ParallelOptions& options,
               const std::vector<double>& durations);

  /// The Eq. 1 transient of task i: children files + n_i + f_i.
  Weight transient(NodeId i) const {
    return tree_->child_file_sum(i) + tree_->work_size(i) +
           tree_->file_size(i);
  }

  /// False iff some task can never start: its own transient exceeds the
  /// budget, so the instance is infeasible outright.
  bool all_tasks_fit() const;

  /// The front-ends' pre-run gate. Greedy: all_tasks_fit(). Lookahead
  /// additionally requires the witness's serial peak to fit the budget —
  /// below that no admission is ever safe (and the policy's zero-stall
  /// guarantee needs the witness as the fallback schedule).
  bool schedule_feasible() const;

  AdmissionPolicy admission() const { return admission_; }
  /// Serial Eq. 1 peak of the witness traversal (0 under greedy).
  Weight witness_peak() const { return witness_peak_; }

  bool has_ready() const { return !ready_.empty(); }
  std::size_t finished_count() const { return finished_; }
  bool done() const {
    return finished_ == static_cast<std::size_t>(tree_->size());
  }

  /// Pops the highest-priority ready task that fits the budget on top of
  /// the current occupancy AND passes the admission policy, and accounts
  /// its start (the delta is n_i + f_i: the children files it absorbs are
  /// already resident). Returns kNoNode when no ready task is admissible
  /// right now. O(log |ready|) per candidate tried: refused candidates go
  /// back on the ready heap before the call returns.
  NodeId try_start();

  /// Marks i finished: frees its transient, keeps f_i resident until the
  /// parent consumes it, and readies the parent once its last child is done
  /// (an O(log |ready|) heap push).
  void finish(NodeId i);

  Weight current_memory() const { return memory_.current(); }
  Weight peak_memory() const { return memory_.peak(); }
  const std::vector<double>& ranks() const { return rank_; }

  /// True when a comes before b in priority order (higher rank first,
  /// smaller id on ties).
  bool before(NodeId a, NodeId b) const {
    const double ra = rank_[static_cast<std::size_t>(a)];
    const double rb = rank_[static_cast<std::size_t>(b)];
    return ra != rb ? ra > rb : a < b;
  }

 private:
  bool lookahead_admits(NodeId i, Weight delta) const;
  void commit_start(NodeId i);
  void push_ready(NodeId i);
  /// std:: heap comparator ("a ranks below b"), so the heap top is the
  /// best ready task under before().
  auto heap_order() const {
    return [this](NodeId a, NodeId b) { return before(b, a); };
  }

  const Tree* tree_;
  AdmissionPolicy admission_;
  std::vector<double> rank_;
  std::vector<NodeId> missing_children_;
  /// Binary heap under before(): ready_.front() is the best ready task.
  std::vector<NodeId> ready_;
  std::vector<NodeId> refused_;  ///< try_start's scratch, empty between calls
  MemoryAccountant memory_;
  std::size_t finished_ = 0;

  // Lookahead machinery. The witness is stored bottom-up; frontier_ is the
  // first witness position whose node has not finished; drain_sum_ is
  // Σ over running tasks of (f_i − transient(i)) — what hypothetically
  // completing them all would add to the occupancy.
  Traversal witness_;
  Weight witness_peak_ = 0;
  std::size_t frontier_ = 0;
  Weight drain_sum_ = 0;
  std::vector<char> started_;
  std::vector<char> finished_flag_;
};

}  // namespace treemem
