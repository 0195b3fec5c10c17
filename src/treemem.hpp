// Umbrella header: the whole treemem public API.
//
// treemem reproduces "On Optimal Tree Traversals for Sparse Matrix
// Factorization" (Jacquelin, Marchal, Robert, Uçar; IPDPS 2011): memory-
// optimal traversals of task trees (MinMemory), I/O-minimizing out-of-core
// schedules (MinIO), and the complete sparse-factorization substrate the
// paper's evaluation rests on. See README.md for a guided tour.
#pragma once

// The task-tree model and generators.
#include "tree/generators.hpp"
#include "tree/tree.hpp"
#include "tree/tree_io.hpp"

// The paper's algorithms.
#include "core/brute_force.hpp"
#include "core/check.hpp"
#include "core/liu.hpp"
#include "core/minio.hpp"
#include "core/minio_exact.hpp"
#include "core/minmem.hpp"
#include "core/in_tree.hpp"
#include "core/pebble.hpp"
#include "core/planner.hpp"
#include "core/postorder.hpp"
#include "core/trace.hpp"
#include "core/traversal.hpp"
#include "core/variants.hpp"

// Sparse-matrix substrate.
#include "order/ordering.hpp"
#include "sparse/generators.hpp"
#include "sparse/matrix.hpp"
#include "sparse/mm_io.hpp"
#include "sparse/pattern.hpp"
#include "symbolic/assembly_tree.hpp"
#include "symbolic/symbolic.hpp"

// Dense front kernels behind the numeric engine.
#include "dense/front_kernel.hpp"

// Numerical multifrontal engine.
#include "multifrontal/disk_model.hpp"
#include "multifrontal/numeric.hpp"
#include "multifrontal/numeric_parallel.hpp"
#include "multifrontal/out_of_core.hpp"

// Parallel scheduling and execution (future-work direction of the paper).
#include "parallel/executor.hpp"
#include "parallel/parallel_sim.hpp"
#include "parallel/schedule_core.hpp"
#include "parallel/worker_pool.hpp"

// The phased solver facade (analyze → plan → factorize → solve) — the
// recommended entry point; everything below it stays exported for the
// paper-reproduction benches. The service layer on top shares symbolic
// state across tenants (symbolic_cache) and serves concurrent requests
// from a worker pool (solver_pool).
#include "solver/solver.hpp"
#include "solver/solver_pool.hpp"
#include "solver/symbolic_cache.hpp"
#include "solver/symbolic_store.hpp"

// Observability: low-overhead tracing (Chrome trace_event timelines) and
// the process-wide metrics registry (Prometheus-style exposition).
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

// Experiment layer.
#include "perf/corpus.hpp"
#include "perf/profile.hpp"
#include "perf/traffic.hpp"

// Support layer: strictly-parsed TREEMEM_* environment overrides, seeded
// PRNG, CSV/table reporting, wall-clock timing, parallel loops.
#include "support/csv.hpp"
#include "support/env.hpp"
#include "support/parallel_for.hpp"
#include "support/prng.hpp"
#include "support/text_table.hpp"
#include "support/timer.hpp"
