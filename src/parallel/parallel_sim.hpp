// Memory-bounded parallel tree traversal — the direction the paper's
// conclusion points to ("multi-core platforms ... call for re-designing the
// whole computational chain ... memory-aware computational kernels at every
// level").
//
// An event-driven simulator of the multifrontal task tree on `w` workers
// sharing one memory of size M. Task i (in-tree direction) becomes ready
// when all children finished; while it runs it holds its children's files,
// its execution file and its output (the Eq. 1 transient); on completion
// the children files and n_i are freed and f_i stays resident until the
// parent consumes it. A ready task may start only if the memory bound
// admits its transient on top of everything currently held.
//
// The simulator exposes the fundamental tension this creates: more workers
// mean more concurrent fronts and thus more memory — with a tight budget
// the scheduler serializes (or, if even one task cannot fit, fails), so
// speedup is bought with memory. bench/parallel_tradeoff quantifies it.
//
// All scheduling decisions, the options and the result type are shared
// with the real threaded executor (parallel/executor.hpp) through
// parallel/schedule_core.hpp; this header only adds the virtual-clock
// front-end. Its gantt holds modeled times, indexed by node.
#pragma once

#include <vector>

#include "parallel/schedule_core.hpp"
#include "tree/tree.hpp"

namespace treemem {

/// Task durations default to the node's transient footprint (n_i + f_i, at
/// least 1) — see default_task_durations(). Use the explicit overload for
/// custom durations.
ParallelScheduleResult simulate_parallel_traversal(const Tree& tree,
                                                   const ParallelOptions& options);

ParallelScheduleResult simulate_parallel_traversal(
    const Tree& tree, const ParallelOptions& options,
    const std::vector<double>& durations);

}  // namespace treemem
