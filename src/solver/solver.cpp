#include "solver/solver.hpp"

#include <algorithm>
#include <utility>

#include "core/liu.hpp"
#include "core/minmem.hpp"
#include "core/planner.hpp"
#include "core/postorder.hpp"
#include "multifrontal/numeric_parallel.hpp"
#include "multifrontal/out_of_core.hpp"
#include "obs/trace.hpp"
#include "order/ordering.hpp"
#include "support/parallel_for.hpp"
#include "support/timer.hpp"

namespace treemem {

const char* to_string(TraversalPolicy policy) {
  switch (policy) {
    case TraversalPolicy::kAuto:
      return "auto";
    case TraversalPolicy::kPostorder:
      return "postorder";
    case TraversalPolicy::kLiu:
      return "liu";
    case TraversalPolicy::kMinMem:
      return "minmem";
  }
  return "?";
}

void Solver::require_phase(Phase at_least, const char* verb,
                           const char* prerequisite) const {
  TM_CHECK(phase_ >= at_least,
           "Solver::" << verb << ": call " << prerequisite << " first");
}

// ---------------------------------------------------------------------------
// Phase 1: analyze
// ---------------------------------------------------------------------------

void permute_analysis(SolverAnalysis& analysis) {
  // The gather map: permuted entry o holds the original value at offset
  // map[o]. The permutation records it as it places each entry, so every
  // later factorize() is a single linear gather over the value array.
  PermutedPattern permuted =
      permute_symmetric_mapped(analysis.pattern, analysis.perm);
  analysis.permuted_pattern = std::move(permuted.pattern);
  analysis.permuted_value_map = std::move(permuted.source_offset);
}

Solver& Solver::analyze(const SparsePattern& pattern) {
  return analyze(pattern, options_.analyze);
}

Solver& Solver::analyze(const SparsePattern& pattern,
                        const AnalyzeOptions& options) {
  TM_CHECK(pattern.is_square() && pattern.cols() > 0,
           "Solver::analyze: pattern must be square and non-empty");
  TM_CHECK(pattern.is_symmetric() && pattern.has_full_diagonal(),
           "Solver::analyze: pattern must be symmetric with a full diagonal "
           "(apply symmetrize() first)");
  TM_CHECK(options_.factorize.workers >= 0,
           "Solver::analyze: workers must be >= 0 (0 = default)");
  Timer timer;
  obs::TraceSpan phase_span("analyze", "solver", obs::TraceRecorder::kNoLane,
                            "n", static_cast<long long>(pattern.cols()));

  auto analysis = std::make_shared<SolverAnalysis>();
  analysis->options = options;

  analysis->pattern = pattern;
  // At the factorization's worker count (0 is the pool's size, as there);
  // the permutation does not depend on it.
  analysis->perm = fill_reducing_order(
      pattern, options.ordering,
      static_cast<unsigned>(options_.factorize.workers));
  permute_analysis(*analysis);
  AssemblyTreeOptions tree_options;
  tree_options.relax = options.relax;
  tree_options.perfect = options.perfect;
  analysis->assembly =
      build_assembly_tree(analysis->permuted_pattern, tree_options);
  analysis->stats = {.n = pattern.cols(),
                     .pattern_nnz = pattern.nnz(),
                     .factor_nnz = analysis->assembly.fronts->factor_nnz,
                     .tree_nodes = analysis->assembly.tree.size(),
                     .ordering = to_string(options.ordering),
                     .analyze_seconds = timer.elapsed_s()};

  // Commit only after everything above succeeded, so a throwing analyze()
  // leaves a previously analyzed solver intact.
  analysis_ = std::move(analysis);
  plan_.reset();
  postorder_cache_.reset();
  liu_cache_.reset();
  minmem_cache_.reset();
  drop_factor();
  phase_ = Phase::kAnalyzed;
  last_run_ = {};
  totals_ = {};
  return *this;
}

// ---------------------------------------------------------------------------
// Phase 2: plan
// ---------------------------------------------------------------------------

Solver& Solver::plan() { return plan(options_.plan); }

const TraversalResult& Solver::cached_postorder() const {
  if (!postorder_cache_) {
    postorder_cache_ = best_postorder(analysis_->assembly.tree);
  }
  return *postorder_cache_;
}

const TraversalResult& Solver::cached_liu() const {
  if (!liu_cache_) {
    liu_cache_ = liu_optimal(analysis_->assembly.tree);
  }
  return *liu_cache_;
}

const MinMemResult& Solver::cached_minmem() const {
  if (!minmem_cache_) {
    minmem_cache_ = minmem_optimal(analysis_->assembly.tree);
  }
  return *minmem_cache_;
}

Solver& Solver::plan(const PlanOptions& options) {
  require_phase(Phase::kAnalyzed, "plan", "analyze()");
  TM_CHECK(options.memory_budget > 0,
           "Solver::plan: memory budget must be positive");
  Timer timer;
  obs::TraceSpan phase_span("plan", "solver");
  const Tree& tree = analysis_->assembly.tree;
  const Weight budget = options.memory_budget;

  const TraversalResult& postorder = cached_postorder();
  const MinMemResult& optimal = cached_minmem();

  ExecutionPlan chosen;
  if (options.policy == TraversalPolicy::kAuto) {
    // The paper's decision procedure, over the memoized searches.
    chosen = plan_execution(
        tree, budget,
        {postorder, optimal,
         [this]() -> const TraversalResult& { return cached_liu(); }});
  } else {
    // An explicit policy runs its own traversal: in core when it fits,
    // else with MinIO eviction along that same traversal.
    const char* name = to_string(options.policy);
    const Traversal* order = &optimal.order;
    Weight peak = optimal.peak;
    if (options.policy != TraversalPolicy::kMinMem) {
      const TraversalResult& result =
          options.policy == TraversalPolicy::kPostorder ? postorder
                                                        : cached_liu();
      order = &result.order;
      peak = result.peak;
    }
    if (budget >= peak) {
      chosen.feasible = true;
      chosen.strategy = std::string(name) + "/in-core";
      chosen.schedule.order = *order;
      chosen.peak = peak;
    } else {
      const TraversalCandidate candidates[] = {{name, order}};
      chosen = plan_out_of_core(tree, budget, candidates);
    }
  }
  TM_CHECK(chosen.feasible,
           "Solver::plan: budget "
               << budget << " is below max MemReq "
               << std::max(tree.max_mem_req(), tree.file_size(tree.root()))
               << " — no schedule can help (Eq. 1)");

  auto plan_state = std::make_shared<SolverPlan>();
  plan_state->options = options;
  plan_state->bottom_up_order = reverse_traversal(chosen.schedule.order);
  if (chosen.out_of_core) {
    plan_state->io_schedule = std::move(chosen.schedule);
  }
  plan_state->out_of_core = chosen.out_of_core;
  plan_state->stats = {.strategy = std::move(chosen.strategy),
                       .memory_budget = budget,
                       .planned_peak_entries = chosen.peak,
                       .in_core_optimum = optimal.peak,
                       .best_postorder_peak = postorder.peak,
                       .planned_io_volume = chosen.io_volume,
                       .plan_seconds = timer.elapsed_s()};

  plan_ = std::move(plan_state);
  drop_factor();
  phase_ = Phase::kPlanned;
  return *this;
}

// ---------------------------------------------------------------------------
// Shared symbolic state
// ---------------------------------------------------------------------------

SolverSymbolic Solver::symbolic() const {
  require_phase(Phase::kPlanned, "symbolic", "plan()");
  return SolverSymbolic{analysis_, plan_};
}

Solver& Solver::adopt(SolverSymbolic symbolic) {
  TM_CHECK(symbolic.analysis != nullptr && symbolic.plan != nullptr,
           "Solver::adopt: symbolic state must carry both an analysis and a "
           "plan (export it from a planned solver via symbolic())");
  analysis_ = std::move(symbolic.analysis);
  plan_ = std::move(symbolic.plan);
  postorder_cache_.reset();
  liu_cache_.reset();
  minmem_cache_.reset();
  drop_factor();
  phase_ = Phase::kPlanned;
  // The analyze and plan sections now read the adopted state; the totals
  // stay, so a pooled solver accumulates lifetime totals.
  last_run_ = {};
  return *this;
}

// ---------------------------------------------------------------------------
// Phase 3: factorize
// ---------------------------------------------------------------------------

void Solver::drop_factor() {
  if (factor_) {
    workspace_.reclaim(std::move(*factor_));
    factor_.reset();
    phase_ = Phase::kPlanned;
  }
}

Solver& Solver::factorize(const SymmetricMatrix& matrix) {
  return factorize(matrix, options_.factorize);
}

Solver& Solver::factorize(const SymmetricMatrix& matrix,
                          const FactorizeOptions& options) {
  require_phase(Phase::kPlanned, "factorize", "plan()");
  // The old factor's panels become the new run's, so only one factor's
  // panels are ever held, and a run that throws leaves the solver planned.
  drop_factor();
  TM_CHECK(matrix.pattern().col_ptr() == analysis_->pattern.col_ptr() &&
               matrix.pattern().row_idx() == analysis_->pattern.row_idx(),
           "Solver::factorize: matrix pattern differs from the analyzed "
           "pattern");
  return factorize_permuted(permute_values(matrix.values()), options);
}

Solver& Solver::factorize(std::vector<double> values) {
  return factorize(std::move(values), options_.factorize);
}

Solver& Solver::factorize(std::vector<double> values,
                          const FactorizeOptions& options) {
  require_phase(Phase::kPlanned, "factorize", "plan()");
  drop_factor();
  TM_CHECK(values.size() == static_cast<std::size_t>(analysis_->pattern.nnz()),
           "Solver::factorize: " << values.size()
                                 << " values for a pattern with "
                                 << analysis_->pattern.nnz() << " entries");
  return factorize_permuted(permute_values(values), options);
}

SymmetricMatrix Solver::permute_values(
    const std::vector<double>& values) const {
  // One linear gather over the analyze()-time map replaces a full
  // symbolic permutation per factorize; the SymmetricMatrix constructor
  // still validates value symmetry on the permuted system.
  const std::vector<std::size_t>& map = analysis_->permuted_value_map;
  std::vector<double> permuted_values(map.size());
  for (std::size_t o = 0; o < map.size(); ++o) {
    permuted_values[o] = values[map[o]];
  }
  return SymmetricMatrix(analysis_->permuted_pattern,
                         std::move(permuted_values));
}

Solver& Solver::factorize_permuted(const SymmetricMatrix& permuted,
                                   const FactorizeOptions& options) {
  TM_CHECK(options.workers >= 0,
           "Solver::factorize: workers must be >= 0 (0 = default)");
  const int workers = options.workers > 0
                          ? options.workers
                          : static_cast<int>(default_thread_count());

  Timer timer;
  obs::TraceSpan phase_span("factorize", "solver", obs::TraceRecorder::kNoLane,
                            "workers", workers);
  const Weight budget = plan_->stats.memory_budget;
  // Every engine ends here: record the run and count it.
  auto commit = [&](CholeskyFactor factor, FactorizeStats run) -> Solver& {
    factor_ = std::move(factor);
    phase_ = Phase::kFactorized;
    run.factorize_seconds = timer.elapsed_s();
    last_run_ = std::move(run);
    ++totals_.factorizations;
    return *this;
  };

  // The engine follows from the plan and the worker count. Spilling is
  // serial, and the serial engines make no admission decisions: the plan's
  // peak is the modeled one.
  if (plan_->out_of_core) {
    OutOfCoreRunResult run = multifrontal_cholesky_out_of_core(
        permuted, analysis_->assembly, plan_->io_schedule, budget, {},
        &workspace_);
    return commit(std::move(run.factor),
                  {.engine = "out-of-core",
                   .admission = {},
                   .workers = 1,
                   .flops = run.flops,
                   .measured_peak_entries = run.peak_live_entries,
                   .modeled_peak_entries = plan_->stats.planned_peak_entries});
  }

  bool stall_fallback = false;
  if (workers > 1) {
    // The planned traversal is the serial witness: plan() guaranteed its
    // peak fits the budget, so lookahead admission is stall-free here.
    const ParallelFactorOptions parallel{
        .workers = workers,
        .memory_budget = budget,
        .priority = options.priority,
        .admission = options.admission,
        .serial_witness = plan_->bottom_up_order,
        .kernel = options.kernel,
        .lease_idle_workers = options.lease_idle_workers};
    ParallelFactorResult run =
        factor_parallel(permuted, analysis_->assembly, parallel, &workspace_);
    if (run.feasible) {
      return commit(std::move(run.factor),
                    {.engine = "parallel",
                     .admission = to_string(options.admission),
                     .workers = workers,
                     .flops = run.flops,
                     .measured_peak_entries = run.measured_peak_entries,
                     .modeled_peak_entries = run.modeled_peak_entries,
                     .parallel_speedup = run.speedup,
                     .parallel_tasks = run.tasks});
    }
    // Greedy stall under a tight budget: the planned serial traversal is
    // guaranteed feasible, and the serial engine produces the identical
    // factor bit for bit, in the storage the stalled run gave back.
    stall_fallback = true;
  }

  MultifrontalResult run =
      multifrontal_cholesky(permuted, analysis_->assembly,
                            plan_->bottom_up_order, options.kernel,
                            &workspace_);
  return commit(std::move(run.factor),
                {.engine = "serial",
                 .admission = {},
                 .workers = 1,
                 .flops = run.flops,
                 .measured_peak_entries = run.peak_live_entries,
                 .modeled_peak_entries = plan_->stats.planned_peak_entries,
                 .stall_fallback = stall_fallback});
}

// ---------------------------------------------------------------------------
// Phase 4: solve
// ---------------------------------------------------------------------------

std::vector<double> Solver::solve(std::vector<double> rhs) const {
  std::vector<std::vector<double>> columns(1);
  columns[0] = std::move(rhs);
  return std::move(solve(columns)[0]);
}

std::vector<std::vector<double>> Solver::solve(
    const std::vector<std::vector<double>>& rhs) const {
  require_phase(Phase::kFactorized, "solve", "factorize()");
  const std::size_t n = static_cast<std::size_t>(analysis_->pattern.cols());
  for (const std::vector<double>& column : rhs) {
    TM_CHECK(column.size() == n, "Solver::solve: rhs has "
                                     << column.size() << " entries, expected "
                                     << n);
  }
  Timer timer;
  obs::TraceSpan phase_span("solve", "solver");
  const std::vector<Index>& perm = analysis_->perm;
  // Solve P A Pᵀ Y = P B for every column in one sweep over the panels,
  // then undo the permutation: X = Pᵀ Y. The block is local, so concurrent
  // solves share nothing but the immutable factor.
  std::vector<double> block(n * rhs.size());
  for (std::size_t c = 0; c < rhs.size(); ++c) {
    for (std::size_t k = 0; k < n; ++k) {
      block[c * n + k] = rhs[c][static_cast<std::size_t>(perm[k])];
    }
  }
  solve_with_factor(*factor_, std::span<double>(block), rhs.size());
  std::vector<std::vector<double>> solutions(rhs.size(),
                                             std::vector<double>(n));
  for (std::size_t c = 0; c < rhs.size(); ++c) {
    for (std::size_t k = 0; k < n; ++k) {
      solutions[c][static_cast<std::size_t>(perm[k])] = block[c * n + k];
    }
  }
  // Relaxed is enough: the counters are cumulative tallies read through
  // stats() snapshots, not synchronization edges.
  totals_.solve_nanos.fetch_add(
      static_cast<long long>(timer.elapsed_s() * 1e9),
      std::memory_order_relaxed);
  totals_.rhs.fetch_add(static_cast<long long>(rhs.size()),
                        std::memory_order_relaxed);
  return solutions;
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

SolverStats Solver::stats() const {
  SolverStats snapshot;
  if (analysis_) {
    static_cast<AnalyzeStats&>(snapshot) = analysis_->stats;
  }
  if (plan_) {
    static_cast<PlanStats&>(snapshot) = plan_->stats;
  }
  static_cast<FactorizeStats&>(snapshot) = last_run_;
  snapshot.factorizations = totals_.factorizations;
  snapshot.rhs_solved = totals_.rhs.load(std::memory_order_relaxed);
  snapshot.solve_seconds =
      static_cast<double>(
          totals_.solve_nanos.load(std::memory_order_relaxed)) *
      1e-9;
  return snapshot;
}

const std::vector<Index>& Solver::permutation() const {
  require_phase(Phase::kAnalyzed, "permutation", "analyze()");
  return analysis_->perm;
}

const AssemblyTree& Solver::assembly() const {
  require_phase(Phase::kAnalyzed, "assembly", "analyze()");
  return analysis_->assembly;
}

const Traversal& Solver::planned_traversal() const {
  require_phase(Phase::kPlanned, "planned_traversal", "plan()");
  return plan_->bottom_up_order;
}

const IoSchedule& Solver::planned_io_schedule() const {
  require_phase(Phase::kPlanned, "planned_io_schedule", "plan()");
  return plan_->io_schedule;
}

const CholeskyFactor& Solver::factor() const {
  require_phase(Phase::kFactorized, "factor", "factorize()");
  return *factor_;
}

}  // namespace treemem
