#include "multifrontal/numeric.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"
#include "symbolic/symbolic.hpp"

namespace treemem {

double CholeskyFactor::value_of(Index row, Index col) const {
  const auto c = pattern.column(col);
  const auto it = std::lower_bound(c.begin(), c.end(), row);
  if (it == c.end() || *it != row) {
    return 0.0;
  }
  const std::size_t offset =
      static_cast<std::size_t>(pattern.col_ptr()[static_cast<std::size_t>(col)]) +
      static_cast<std::size_t>(it - c.begin());
  return values[offset];
}

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
      kernel_(make_front_kernel(kernel)) {
  const Index n = matrix.size();
  const Tree& tree = assembly.tree;
  TM_CHECK(assembly.columns == n,
           "assembly tree built for " << assembly.columns
                                      << " columns, matrix has " << n);

  // Member columns per supernode, ascending.
  members_.assign(static_cast<std::size_t>(tree.size()), {});
  for (Index j = 0; j < n; ++j) {
    members_[static_cast<std::size_t>(
                 assembly.supernode_of[static_cast<std::size_t>(j)])]
        .push_back(j);
  }
  for (auto& m : members_) {
    std::sort(m.begin(), m.end());
  }

  // Exact factor structure (column-merge symbolic factorization).
  factor_.pattern = symbolic_cholesky(matrix.pattern());
  factor_.values.assign(static_cast<std::size_t>(factor_.pattern.nnz()), 0.0);

  // Symbolic front sizes: |union of the member columns' factor structures|.
  // The members are the leading front rows, so the union size is the
  // largest member structure extended by the earlier members — computed
  // here once so durations/priorities are available before any numeric
  // work runs.
  front_size_.assign(static_cast<std::size_t>(tree.size()), 0);
  std::vector<Index> mark(static_cast<std::size_t>(n), -1);
  for (NodeId s = 0; s < tree.size(); ++s) {
    Index count = 0;
    for (const Index j : members_[static_cast<std::size_t>(s)]) {
      for (const Index r : factor_.pattern.column(j)) {
        if (mark[static_cast<std::size_t>(r)] != s) {
          mark[static_cast<std::size_t>(r)] = s;
          ++count;
        }
      }
    }
    front_size_[static_cast<std::size_t>(s)] = count;
  }

  blocks_.assign(static_cast<std::size_t>(tree.size()), {});
  transient_at_start_.assign(static_cast<std::size_t>(tree.size()), 0);
  live_after_.assign(static_cast<std::size_t>(tree.size()), 0);
}

FrontWorkspace FrontalEngine::make_workspace() const {
  FrontWorkspace ws;
  ws.front_pos.assign(static_cast<std::size_t>(matrix_->size()), -1);
  return ws;
}

std::vector<double> FrontalEngine::estimated_front_flops() const {
  std::vector<double> flops(front_size_.size(), 1.0);
  for (std::size_t s = 0; s < front_size_.size(); ++s) {
    const double m = static_cast<double>(front_size_[s]);
    const double eta = static_cast<double>(members_[s].size());
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
  const auto& cols = members_[static_cast<std::size_t>(s)];

  // Front rows: union of the member columns' factor structures.
  ws.rows.clear();
  for (const Index j : cols) {
    const auto lc = l_pattern.column(j);
    ws.rows.insert(ws.rows.end(), lc.begin(), lc.end());
  }
  std::sort(ws.rows.begin(), ws.rows.end());
  ws.rows.erase(std::unique(ws.rows.begin(), ws.rows.end()), ws.rows.end());
  const std::size_t m = ws.rows.size();
  const std::size_t eta = cols.size();
  // On the emitting thread's own track: the executor separately records
  // this front on its worker lane, so serial runs still get front spans.
  obs::TraceSpan trace_front("process_front", "mf",
                             obs::TraceRecorder::kNoLane, "node",
                             static_cast<long long>(s), "m",
                             static_cast<long long>(m));
  TM_ASSERT(m == static_cast<std::size_t>(
                     front_size_[static_cast<std::size_t>(s)]),
            "symbolic front size drifted from the numeric union at node " << s);
  // Members are the eta smallest rows of the front (they are mutually
  // reachable along the etree path inside the supernode; every other row
  // is a strict ancestor of the top member).
  for (std::size_t k = 0; k < eta; ++k) {
    TM_ASSERT(ws.rows[k] == cols[k],
              "member columns are not the leading front rows at node " << s);
  }
  for (std::size_t k = 0; k < m; ++k) {
    ws.front_pos[static_cast<std::size_t>(ws.rows[k])] = static_cast<Index>(k);
  }

  ws.front.assign(m * m, 0.0);
  auto at = [&](std::size_t r, std::size_t c) -> double& {
    return ws.front[c * m + r];
  };

  // Assemble the original entries of the member columns (lower part).
  for (const Index j : cols) {
    const std::size_t jc = static_cast<std::size_t>(
        ws.front_pos[static_cast<std::size_t>(j)]);
    for (const Index r : matrix_->pattern().column(j)) {
      if (r >= j) {
        TM_ASSERT(ws.front_pos[static_cast<std::size_t>(r)] >= 0,
                  "matrix entry outside the front at (" << r << "," << j << ")");
        at(static_cast<std::size_t>(ws.front_pos[static_cast<std::size_t>(r)]),
           jc) += matrix_->value_of(r, j);
      }
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
    ContributionBlock& cb = blocks_[static_cast<std::size_t>(c)];
    const std::size_t cm = cb.rows.size();
    kernel_->extend_add(ws.front.data(), m, ws.front_pos.data(),
                        cb.rows.data(), cm, cb.values.data());
    meter_.lower(static_cast<Weight>(cm * cm));
    cb.rows.clear();
    cb.rows.shrink_to_fit();
    cb.values.clear();
    cb.values.shrink_to_fit();
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
  ContributionBlock& own = blocks_[static_cast<std::size_t>(s)];
  const std::size_t cbm = m - eta;
  own.rows.assign(ws.rows.begin() + static_cast<std::ptrdiff_t>(eta),
                  ws.rows.end());
  own.values.assign(cbm * cbm, 0.0);
  for (std::size_t c = 0; c < cbm; ++c) {
    for (std::size_t r = c; r < cbm; ++r) {
      own.values[c * cbm + r] = at(eta + r, eta + c);
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
  const Tree& tree = assembly.tree;
  TM_CHECK(bottom_up_order.size() == static_cast<std::size_t>(tree.size()),
           "traversal size mismatch");

  // Validate the in-tree order: children before parents.
  {
    std::vector<NodeId> pos(static_cast<std::size_t>(tree.size()), kNoNode);
    for (std::size_t t = 0; t < bottom_up_order.size(); ++t) {
      const NodeId u = bottom_up_order[t];
      TM_CHECK(u >= 0 && u < tree.size() && pos[static_cast<std::size_t>(u)] == kNoNode,
               "invalid traversal entry at step " << t);
      pos[static_cast<std::size_t>(u)] = static_cast<NodeId>(t);
    }
    for (NodeId u = 0; u < tree.size(); ++u) {
      if (tree.parent(u) != kNoNode) {
        TM_CHECK(pos[static_cast<std::size_t>(u)] <
                     pos[static_cast<std::size_t>(tree.parent(u))],
                 "traversal is not bottom-up at node " << u);
      }
    }
  }

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
