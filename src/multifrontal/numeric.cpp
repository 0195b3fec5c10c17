#include "multifrontal/numeric.hpp"

#include <algorithm>
#include <cmath>

#include "core/check.hpp"
#include "obs/trace.hpp"

namespace treemem {

Weight LiveEntryMeter::raise(Weight delta) {
  TM_ASSERT(delta >= 0, "LiveEntryMeter::raise needs delta >= 0");
  const Weight now =
      current_.fetch_add(delta, std::memory_order_relaxed) + delta;
  Weight seen = peak_.load(std::memory_order_relaxed);
  while (now > seen &&
         !peak_.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
  }
  return now;
}

Weight LiveEntryMeter::lower(Weight delta) {
  TM_ASSERT(delta >= 0, "LiveEntryMeter::lower needs delta >= 0");
  return current_.fetch_sub(delta, std::memory_order_relaxed) - delta;
}

FrontalEngine::FrontalEngine(const SymmetricMatrix& matrix,
                             const AssemblyTree& assembly,
                             const KernelConfig& kernel)
    : matrix_(&matrix),
      assembly_(&assembly),
      fronts_(assembly.fronts.get()),
      kernel_(make_front_kernel(kernel)) {
  const Index n = matrix.size();
  const std::size_t nodes = static_cast<std::size_t>(assembly.tree.size());
  TM_CHECK(assembly.columns == n,
           "assembly tree built for " << assembly.columns
                                      << " columns, matrix has " << n);
  TM_CHECK(fronts_ != nullptr,
           "assembly tree carries no front structure (build it with "
           "build_assembly_tree, not amalgamate)");

  factor_.pattern = fronts_->factor;
  factor_.values.assign(static_cast<std::size_t>(factor_.pattern.nnz()), 0.0);
  blocks_.assign(nodes, {});
  transient_at_start_.assign(nodes, 0);
  live_after_.assign(nodes, 0);
}

FrontWorkspace FrontalEngine::make_workspace() const {
  FrontWorkspace ws;
  ws.front_pos.assign(static_cast<std::size_t>(matrix_->size()), -1);
  return ws;
}

std::vector<double> FrontalEngine::estimated_front_flops() const {
  std::vector<double> flops(static_cast<std::size_t>(assembly_->tree.size()));
  for (std::size_t s = 0; s < flops.size(); ++s) {
    const auto node = static_cast<NodeId>(s);
    const double m = static_cast<double>(fronts_->front_size(node));
    const double eta = static_cast<double>(fronts_->members(node).size());
    // Σ_{k=0..η-1} (m-k)² — the dense partial-Cholesky update volume.
    double cost = 0.0;
    for (double k = 0.0; k < eta; k += 1.0) {
      cost += (m - k) * (m - k);
    }
    flops[s] = std::max(1.0, cost);
  }
  return flops;
}

void FrontalEngine::process_front(NodeId s, FrontWorkspace& ws) {
  const Tree& tree = assembly_->tree;
  TM_CHECK(s >= 0 && s < tree.size(), "process_front: bad supernode " << s);
  TM_CHECK(ws.front_pos.size() == static_cast<std::size_t>(matrix_->size()),
           "process_front: workspace not made by this engine");
  const SparsePattern& l_pattern = factor_.pattern;
  const auto cols = fronts_->members(s);

  // Front rows: the members, then the contribution block's rows.
  const auto update_rows = fronts_->update_rows(s);
  ws.rows.assign(cols.begin(), cols.end());
  ws.rows.insert(ws.rows.end(), update_rows.begin(), update_rows.end());
  const std::size_t m = ws.rows.size();
  const std::size_t eta = cols.size();
  // On the emitting thread's own track: the executor separately records
  // this front on its worker lane, so serial runs still get front spans.
  obs::TraceSpan trace_front("process_front", "mf",
                             obs::TraceRecorder::kNoLane, "node",
                             static_cast<long long>(s), "m",
                             static_cast<long long>(m));
  for (std::size_t k = 0; k < m; ++k) {
    ws.front_pos[static_cast<std::size_t>(ws.rows[k])] = static_cast<Index>(k);
  }

  ws.front.assign(m * m, 0.0);
  auto at = [&](std::size_t r, std::size_t c) -> double& {
    return ws.front[c * m + r];
  };

  // Assemble the original entries of the member columns (lower part), one
  // pass over each column's value range; member k is front row k. Merging
  // against L(:, j) rejects a matrix that is not on the analyzed pattern.
  const SparsePattern& a = matrix_->pattern();
  const std::vector<double>& a_values = matrix_->values();
  for (std::size_t k = 0; k < eta; ++k) {
    const Index j = cols[k];
    const auto a_rows = a.column(j);
    const auto l_rows = l_pattern.column(j);
    const std::size_t base =
        static_cast<std::size_t>(a.col_ptr()[static_cast<std::size_t>(j)]);
    std::size_t li = 0;
    for (std::size_t e = 0; e < a_rows.size(); ++e) {
      const Index r = a_rows[e];
      if (r < j) {
        continue;
      }
      while (li < l_rows.size() && l_rows[li] < r) {
        ++li;
      }
      TM_CHECK(li < l_rows.size() && l_rows[li] == r,
               "matrix entry (" << r << "," << j
                                << ") lies outside the analyzed factor "
                                   "pattern");
      at(static_cast<std::size_t>(ws.front_pos[static_cast<std::size_t>(r)]),
         k) += a_values[base + e];
    }
  }

  // The front is fully allocated while the children contribution blocks are
  // still resident — that instant is the step's Eq. 1 transient, and the
  // only point where the meter's peak can rise.
  transient_at_start_[static_cast<std::size_t>(s)] =
      meter_.raise(static_cast<Weight>(m * m));

  // Extend-add the children contribution blocks, releasing each as it is
  // absorbed. Children are walked in tree order (not completion order), so
  // the floating-point sums — and hence the factor — are schedule-exact
  // (the kernel only scatters one child at a time).
  for (const NodeId c : tree.children(s)) {
    std::vector<double>& cb = blocks_[static_cast<std::size_t>(c)];
    const auto cb_rows = fronts_->update_rows(c);
    const std::size_t cm = cb_rows.size();
    kernel_->extend_add(ws.front.data(), m, ws.front_pos.data(),
                        cb_rows.data(), cm, cb.data());
    meter_.lower(static_cast<Weight>(cm * cm));
    cb.clear();
    cb.shrink_to_fit();
  }

  // Dense partial Cholesky of the leading eta pivots via the front kernel
  // (dense/front_kernel.hpp), which leases idle pool workers for large
  // trailing updates.
  flops_.fetch_add(
      kernel_->partial_factor(ws.front.data(), m, eta, cols.data()),
      std::memory_order_relaxed);

  // Extract the factor columns of the members (disjoint ranges per
  // supernode, so concurrent fronts never write the same slot).
  for (std::size_t k = 0; k < eta; ++k) {
    const Index j = cols[k];
    const auto lc = l_pattern.column(j);
    const std::size_t base = static_cast<std::size_t>(
        l_pattern.col_ptr()[static_cast<std::size_t>(j)]);
    for (std::size_t i = 0; i < lc.size(); ++i) {
      const std::size_t fr = static_cast<std::size_t>(
          ws.front_pos[static_cast<std::size_t>(lc[i])]);
      factor_.values[base + i] = at(fr, k);
    }
  }

  // Store the contribution block (full square, the model's f_s entries)
  // and release the front. The carve-out convention: the CB was already
  // counted inside m², so the meter shrinks by m² − (m−η)² in one step and
  // the peak cannot rise here.
  std::vector<double>& own = blocks_[static_cast<std::size_t>(s)];
  const std::size_t cbm = m - eta;
  own.assign(cbm * cbm, 0.0);
  for (std::size_t c = 0; c < cbm; ++c) {
    for (std::size_t r = c; r < cbm; ++r) {
      own[c * cbm + r] = at(eta + r, eta + c);
    }
  }
  live_after_[static_cast<std::size_t>(s)] =
      meter_.lower(static_cast<Weight>(m * m - cbm * cbm));

  for (const Index r : ws.rows) {
    ws.front_pos[static_cast<std::size_t>(r)] = -1;
  }
}

MultifrontalResult multifrontal_cholesky(const SymmetricMatrix& matrix,
                                         const AssemblyTree& assembly,
                                         const Traversal& bottom_up_order,
                                         const KernelConfig& kernel) {
  // Throws unless the order runs every node once, children before parents.
  in_tree_traversal_peak(assembly.tree, bottom_up_order);

  FrontalEngine engine(matrix, assembly, kernel);
  FrontWorkspace ws = engine.make_workspace();
  MultifrontalResult result;
  result.live_after_step.reserve(bottom_up_order.size());
  for (const NodeId s : bottom_up_order) {
    engine.process_front(s, ws);
    result.live_after_step.push_back(engine.live_entries());
  }

  // Root contribution blocks are empty (mu = 1 for etree roots), so all
  // live memory must have drained; anything left indicates a bug.
  TM_ASSERT(engine.live_entries() == 0,
            "contribution blocks leaked: " << engine.live_entries());
  result.peak_live_entries = engine.peak_live_entries();
  result.flops = engine.flops();
  result.factor = engine.take_factor();
  return result;
}

double relative_residual(const SymmetricMatrix& matrix,
                         const std::vector<double>& x,
                         const std::vector<double>& b) {
  TM_CHECK(x.size() == b.size() &&
               b.size() == static_cast<std::size_t>(matrix.size()),
           "relative_residual: x/b size mismatch");
  const std::vector<double> ax = matrix.multiply(x);
  double err = 0.0, norm = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    const double d = ax[i] - b[i];
    err += d * d;
    norm += b[i] * b[i];
  }
  return std::sqrt(err) / std::max(std::sqrt(norm), 1e-300);
}

double relative_residual(const SymmetricMatrix& matrix,
                         const CholeskyFactor& factor) {
  const Index n = matrix.size();
  TM_CHECK(n <= 2000, "relative_residual: dense check capped at n=2000");
  // Dense A and L.
  std::vector<double> a(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0.0);
  for (Index j = 0; j < n; ++j) {
    for (const Index r : matrix.pattern().column(j)) {
      a[static_cast<std::size_t>(j) * static_cast<std::size_t>(n) +
        static_cast<std::size_t>(r)] = matrix.value_of(r, j);
    }
  }
  double norm_a = 0.0;
  for (const double v : a) {
    norm_a += v * v;
  }

  // Subtract L Lᵀ column by column: (L Lᵀ)(i,j) = Σ_k L(i,k) L(j,k).
  for (Index k = 0; k < n; ++k) {
    const auto lc = factor.pattern.column(k);
    const std::size_t base = static_cast<std::size_t>(
        factor.pattern.col_ptr()[static_cast<std::size_t>(k)]);
    for (std::size_t x = 0; x < lc.size(); ++x) {
      for (std::size_t y = 0; y < lc.size(); ++y) {
        a[static_cast<std::size_t>(lc[y]) * static_cast<std::size_t>(n) +
          static_cast<std::size_t>(lc[x])] -=
            factor.values[base + x] * factor.values[base + y];
      }
    }
  }
  double norm_r = 0.0;
  for (const double v : a) {
    norm_r += v * v;
  }
  return std::sqrt(norm_r) / std::sqrt(norm_a);
}

std::vector<double> solve_with_factor(const CholeskyFactor& factor,
                                      std::vector<double> rhs) {
  const Index n = factor.pattern.cols();
  TM_CHECK(rhs.size() == static_cast<std::size_t>(n),
           "solve: rhs size mismatch");
  // Forward: L y = b.
  for (Index j = 0; j < n; ++j) {
    const auto lc = factor.pattern.column(j);
    const std::size_t base = static_cast<std::size_t>(
        factor.pattern.col_ptr()[static_cast<std::size_t>(j)]);
    TM_ASSERT(!lc.empty() && lc.front() == j, "factor missing diagonal");
    rhs[static_cast<std::size_t>(j)] /= factor.values[base];
    const double yj = rhs[static_cast<std::size_t>(j)];
    for (std::size_t i = 1; i < lc.size(); ++i) {
      rhs[static_cast<std::size_t>(lc[i])] -= factor.values[base + i] * yj;
    }
  }
  // Backward: Lᵀ x = y.
  for (Index j = n; j-- > 0;) {
    const auto lc = factor.pattern.column(j);
    const std::size_t base = static_cast<std::size_t>(
        factor.pattern.col_ptr()[static_cast<std::size_t>(j)]);
    double sum = rhs[static_cast<std::size_t>(j)];
    for (std::size_t i = 1; i < lc.size(); ++i) {
      sum -= factor.values[base + i] * rhs[static_cast<std::size_t>(lc[i])];
    }
    rhs[static_cast<std::size_t>(j)] = sum / factor.values[base];
  }
  return rhs;
}

}  // namespace treemem
