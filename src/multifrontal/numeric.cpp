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
                             const KernelConfig& kernel,
                             NumericWorkspace* storage)
    : matrix_(&matrix),
      assembly_(&assembly),
      fronts_(assembly.fronts.get()),
      storage_(storage != nullptr ? storage : &own_storage_),
      kernel_(make_front_kernel(kernel)) {
  const Index n = matrix.size();
  const std::size_t nodes = static_cast<std::size_t>(assembly.tree.size());
  TM_CHECK(assembly.columns == n,
           "assembly tree built for " << assembly.columns
                                      << " columns, matrix has " << n);
  TM_CHECK(fronts_ != nullptr,
           "assembly tree carries no front structure (build it with "
           "build_assembly_tree, not amalgamate)");

  // Borrow the panel buffer. Its old entries stay and new ones are left
  // unwritten (PanelBuffer): every panel entry is written before a complete
  // run returns its factor. Growing past the capacity drops the old
  // contents first, so the reallocation copies nothing.
  factor_.fronts = assembly.fronts;
  factor_.values = std::move(storage_->panels_);
  const auto entries = static_cast<std::size_t>(fronts_->panel_entries());
  if (factor_.values.capacity() < entries) {
    factor_.values.clear();
  }
  factor_.values.resize(entries);
  blocks_.resize(nodes);
  transient_at_start_.assign(nodes, 0);
  live_after_.assign(nodes, 0);
}

FrontalEngine::~FrontalEngine() {
  if (!factor_.values.empty()) {
    storage_->panels_ = std::move(factor_.values);
  }
}

FrontWorkspace FrontalEngine::acquire_workspace() {
  std::vector<FrontWorkspace>& lanes = storage_->lanes_;
  FrontWorkspace ws;
  if (!lanes.empty()) {
    ws = std::move(lanes.back());
    lanes.pop_back();
  }
  const auto n = static_cast<std::size_t>(matrix_->size());
  if (ws.front_pos.size() != n) {
    ws.front_pos.assign(n, -1);
  }
  return ws;
}

void FrontalEngine::release_workspace(FrontWorkspace ws) {
  storage_->lanes_.push_back(std::move(ws));
}

std::vector<double> estimated_front_flops(const FrontStructure& fronts) {
  std::vector<double> flops(static_cast<std::size_t>(fronts.supernodes()));
  for (std::size_t s = 0; s < flops.size(); ++s) {
    const auto node = static_cast<NodeId>(s);
    const double m = static_cast<double>(fronts.front_size(node));
    const double eta = static_cast<double>(fronts.members(node).size());
    // Σ_{k=0..η-1} (m-k)² — the dense partial-Cholesky update volume.
    double cost = 0.0;
    for (double k = 0.0; k < eta; k += 1.0) {
      cost += (m - k) * (m - k);
    }
    flops[s] = std::max(1.0, cost);
  }
  return flops;
}

std::vector<double> FrontalEngine::estimated_front_flops() const {
  return treemem::estimated_front_flops(*fronts_);
}

void FrontalEngine::process_front(NodeId s, FrontWorkspace& ws) {
  const Tree& tree = assembly_->tree;
  TM_CHECK(s >= 0 && s < tree.size(), "process_front: bad supernode " << s);
  TM_CHECK(ws.front_pos.size() == static_cast<std::size_t>(matrix_->size()),
           "process_front: workspace not made by this engine");
  const auto cols = fronts_->members(s);
  const auto rows = fronts_->rows(s);
  const std::size_t m = rows.size();
  const std::size_t eta = cols.size();
  // On the emitting thread's own track: the executor separately records
  // this front on its worker lane, so serial runs still get front spans.
  obs::TraceSpan trace_front("process_front", "mf",
                             obs::TraceRecorder::kNoLane, "node",
                             static_cast<long long>(s), "m",
                             static_cast<long long>(m));
  for (std::size_t k = 0; k < m; ++k) {
    ws.front_pos[static_cast<std::size_t>(rows[k])] = static_cast<Index>(k);
  }

  // Only the lower triangle is zeroed: nothing reads the upper one.
  if (ws.front_capacity < m * m) {
    ws.front = std::make_unique_for_overwrite<double[]>(m * m);
    ws.front_capacity = m * m;
  }
  double* const front = ws.front.get();
  for (std::size_t c = 0; c < m; ++c) {
    std::fill(front + c * m + c, front + (c + 1) * m, 0.0);
  }
  auto at = [&](std::size_t r, std::size_t c) -> double& {
    return front[c * m + r];
  };

  // Assemble the original entries of the member columns (lower part), one
  // pass over each column's value range; member k is front row k. An entry
  // whose row is not a front row lies outside every front: rejected.
  const SparsePattern& a = matrix_->pattern();
  const std::vector<double>& a_values = matrix_->values();
  for (std::size_t k = 0; k < eta; ++k) {
    const Index j = cols[k];
    const auto a_rows = a.column(j);
    const std::size_t base =
        static_cast<std::size_t>(a.col_ptr()[static_cast<std::size_t>(j)]);
    for (auto e = static_cast<std::size_t>(
             std::lower_bound(a_rows.begin(), a_rows.end(), j) -
             a_rows.begin());
         e < a_rows.size(); ++e) {
      const Index r = a_rows[e];
      const Index pos = ws.front_pos[static_cast<std::size_t>(r)];
      TM_CHECK(pos >= 0, "matrix entry (" << r << "," << j
                                          << ") lies outside the analyzed "
                                             "fronts");
      at(static_cast<std::size_t>(pos), k) += a_values[base + e];
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
    std::unique_ptr<double[]>& cb = blocks_[static_cast<std::size_t>(c)];
    const auto cb_rows = fronts_->update_rows(c);
    const std::size_t cm = cb_rows.size();
    kernel_->extend_add(front, m, ws.front_pos.data(), cb_rows.data(), cm,
                        cb.get());
    meter_.lower(static_cast<Weight>(cm * cm));
    cb.reset();
  }

  // Dense partial Cholesky of the leading eta pivots via the front kernel
  // (dense/front_kernel.hpp), which leases idle pool workers for large
  // trailing updates.
  flops_.fetch_add(
      kernel_->partial_factor(front, m, eta, cols.data()),
      std::memory_order_relaxed);

  // Copy the factor panel out, one contiguous run per column (disjoint
  // panels per supernode, so concurrent fronts never write the same slot).
  double* panel =
      factor_.values.data() + fronts_->value_ptr[static_cast<std::size_t>(s)];
  for (std::size_t k = 0; k < eta; ++k) {
    panel = std::copy(front + k * m + k, front + (k + 1) * m, panel);
  }

  // Store the contribution block (full square, the model's f_s entries;
  // only its lower triangle is copied, the rest stays uninitialized) and
  // release the front. The carve-out convention: the CB was already
  // counted inside m², so the meter shrinks by m² − (m−η)² in one step and
  // the peak cannot rise here.
  const std::size_t cbm = m - eta;
  if (cbm > 0) {
    auto own = std::make_unique_for_overwrite<double[]>(cbm * cbm);
    for (std::size_t c = 0; c < cbm; ++c) {
      const double* const col = front + (eta + c) * m;
      std::copy(col + eta + c, col + m, own.get() + c * cbm + c);
    }
    blocks_[static_cast<std::size_t>(s)] = std::move(own);
  }
  live_after_[static_cast<std::size_t>(s)] =
      meter_.lower(static_cast<Weight>(m * m - cbm * cbm));

  for (const Index r : rows) {
    ws.front_pos[static_cast<std::size_t>(r)] = -1;
  }
}

MultifrontalResult multifrontal_cholesky(const SymmetricMatrix& matrix,
                                         const AssemblyTree& assembly,
                                         const Traversal& bottom_up_order,
                                         const KernelConfig& kernel,
                                         NumericWorkspace* storage) {
  // Throws unless the order runs every node once, children before parents.
  in_tree_traversal_peak(assembly.tree, bottom_up_order);

  FrontalEngine engine(matrix, assembly, kernel, storage);
  FrontWorkspace ws = engine.acquire_workspace();
  MultifrontalResult result;
  result.live_after_step.reserve(bottom_up_order.size());
  for (const NodeId s : bottom_up_order) {
    engine.process_front(s, ws);
    result.live_after_step.push_back(engine.live_entries());
  }
  engine.release_workspace(std::move(ws));

  // Root contribution blocks are empty (mu = 1 for etree roots), so all
  // live memory must have drained; anything left indicates a bug.
  TM_ASSERT(engine.live_entries() == 0,
            "contribution blocks leaked: " << engine.live_entries());
  result.peak_live_entries = engine.peak_live_entries();
  result.flops = engine.flops();
  result.lease_stats = engine.kernel_lease_stats();
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
  const FrontStructure& fronts = *factor.fronts;
  TM_CHECK(factor.size() == n, "relative_residual: factor of order "
                                   << factor.size() << ", matrix of " << n);
  for (NodeId s = 0; s < fronts.supernodes(); ++s) {
    const auto rows = fronts.rows(s);
    for (std::size_t k = 0; k < fronts.members(s).size(); ++k) {
      const double* const col =
          factor.values.data() + fronts.panel_column(s, k);
      const auto lc = rows.subspan(k);
      for (std::size_t x = 0; x < lc.size(); ++x) {
        for (std::size_t y = 0; y < lc.size(); ++y) {
          a[static_cast<std::size_t>(lc[y]) * static_cast<std::size_t>(n) +
            static_cast<std::size_t>(lc[x])] -= col[x] * col[y];
        }
      }
    }
  }
  double norm_r = 0.0;
  for (const double v : a) {
    norm_r += v * v;
  }
  return std::sqrt(norm_r) / std::sqrt(norm_a);
}

}  // namespace treemem
