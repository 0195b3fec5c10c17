#include "dense/front_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/trace.hpp"
#include "parallel/worker_pool.hpp"
#include "support/check.hpp"

namespace treemem {

namespace {

/// The serial trailing-update core: applies panel pivots [k0, k0+nb) to
/// columns [c_begin, c_end) of the column-major m×m front, per column in
/// ascending k with one subtraction per entry and the zero-multiplier
/// skip. Returns flops (2(m−c) per applied (k, c) pair). Thread-safe for
/// disjoint column ranges: writes touch only columns [c_begin, c_end),
/// reads outside them touch only the (already finalized) panel columns.
long long update_column_range(double* front, std::size_t m, std::size_t k0,
                              std::size_t nb, std::size_t c_begin,
                              std::size_t c_end) {
  // Per trailing column: gather the panel pivots with a nonzero
  // multiplier (skips must match the scalar loop's for bit-identical
  // signed zeros and flop counts), then apply them four at a time in one
  // pass over the column. The chained subtractions keep every entry's
  // update sequence exactly the scalar loop's ascending-k order —
  // bit-identical results — while cutting the passes over the (write-hot)
  // trailing column four-fold.
  constexpr std::size_t kChunk = 64;
  const double* panel_col[kChunk];
  double mult[kChunk];
  long long flops = 0;
  for (std::size_t c = c_begin; c < c_end; ++c) {
    double* const colc = front + c * m;
    for (std::size_t kc = k0; kc < k0 + nb; kc += kChunk) {
      const std::size_t k_hi = std::min(k0 + nb, kc + kChunk);
      std::size_t count = 0;
      for (std::size_t k = kc; k < k_hi; ++k) {
        const double lck = front[k * m + c];  // at(c, k)
        if (lck != 0.0) {
          panel_col[count] = front + k * m;
          mult[count] = lck;
          ++count;
        }
      }
      flops +=
          2 * static_cast<long long>(m - c) * static_cast<long long>(count);
      std::size_t i = 0;
      for (; i + 4 <= count; i += 4) {
        const double* const p0 = panel_col[i];
        const double* const p1 = panel_col[i + 1];
        const double* const p2 = panel_col[i + 2];
        const double* const p3 = panel_col[i + 3];
        const double l0 = mult[i];
        const double l1 = mult[i + 1];
        const double l2 = mult[i + 2];
        const double l3 = mult[i + 3];
        for (std::size_t r = c; r < m; ++r) {
          colc[r] = (((colc[r] - p0[r] * l0) - p1[r] * l1) - p2[r] * l2) -
                    p3[r] * l3;
        }
      }
      for (; i < count; ++i) {
        const double* const colk = panel_col[i];
        const double lck = mult[i];
        for (std::size_t r = c; r < m; ++r) {
          colc[r] -= colk[r] * lck;
        }
      }
    }
  }
  return flops;
}

}  // namespace

FrontKernel::FrontKernel(const KernelConfig& config)
    : block_size_(std::max<std::size_t>(1, config.block_size)),
      // workers == 1 never leases, so it never needs (or constructs) the
      // process-wide pool.
      pool_(config.pool != nullptr || config.workers == 1
                ? config.pool
                : &WorkerPool::instance()),
      workers_(config.workers != 0 ? config.workers : pool_->size()),
      min_parallel_volume_(config.min_parallel_volume) {}

long long FrontKernel::partial_factor(double* front, std::size_t m,
                                      std::size_t eta,
                                      const Index* member_columns) const {
  TM_CHECK(eta <= m, "partial_factor: eta " << eta << " exceeds front size "
                                            << m);
  long long flops = 0;
  for (std::size_t k0 = 0; k0 < eta; k0 += block_size_) {
    const std::size_t width = std::min(block_size_, eta - k0);
    {
      obs::TraceSpan span("panel", "dense", obs::TraceRecorder::kNoLane,
                          "k0", static_cast<long long>(k0), "width",
                          static_cast<long long>(width));
      flops += factor_panel(front, m, k0, width, member_columns);
    }
    if (k0 + width < m) {
      // The lease grant/deny instants (from the pool) land inside this
      // span, tying an inline panel to its denial.
      obs::TraceSpan span("trailing_update", "dense",
                          obs::TraceRecorder::kNoLane, "k0",
                          static_cast<long long>(k0), "cols",
                          static_cast<long long>(m - k0 - width));
      flops += trailing_update(front, m, k0, width);
    }
  }
  return flops;
}

long long FrontKernel::factor_panel(double* front, std::size_t m,
                                    std::size_t k0, std::size_t nb,
                                    const Index* member_columns) const {
  long long flops = 0;
  auto at = [&](std::size_t r, std::size_t c) -> double& {
    return front[c * m + r];
  };
  for (std::size_t k = k0; k < k0 + nb; ++k) {
    const double pivot = at(k, k);
    TM_CHECK(pivot > 0.0,
             "matrix is not positive definite at column "
                 << (member_columns ? member_columns[k]
                                    : static_cast<Index>(k))
                 << " (pivot " << pivot << ")");
    const double lkk = std::sqrt(pivot);
    at(k, k) = lkk;
    ++flops;
    for (std::size_t r = k + 1; r < m; ++r) {
      at(r, k) /= lkk;
      ++flops;
    }
    // Right-looking update of the rest of the panel only; trailing columns
    // get this pivot later, in the same ascending-k order, via
    // trailing_update.
    flops += update_column_range(front, m, k, 1, k + 1, k0 + nb);
  }
  return flops;
}

long long FrontKernel::trailing_update(double* front, std::size_t m,
                                       std::size_t k0, std::size_t nb) const {
  const std::size_t c_begin = k0 + nb;
  const std::size_t cols = m - c_begin;
  const std::size_t tiles = (cols + block_size_ - 1) / block_size_;
  // Even a lease costs a mutex claim and a few condvar wakes per panel;
  // only pay when the update amortizes them. The triangular trailing
  // block holds cols·(cols+1)/2 entries, each receiving up to nb
  // multiply-subtract pairs — the unit min_parallel_volume is counted in.
  const bool too_small = nb * (cols * (cols + 1) / 2) < min_parallel_volume_;
  if (workers_ <= 1 || tiles < 2 || too_small) {
    return update_column_range(front, m, k0, nb, c_begin, m);
  }
  // Tiles write disjoint column ranges and read only the (finalized,
  // pre-lease) panel columns, so the update is race-free; each tile runs
  // the serial core in the same order, so the result is independent of
  // the tile schedule and of how many workers the lease got, including
  // zero. Per-tile flop slots instead of an atomic: deterministic and
  // contention-free.
  std::vector<long long> tile_flops(tiles, 0);
  const auto tile_body = [&](std::size_t t) {
    const std::size_t c0 = c_begin + t * block_size_;
    const std::size_t c1 = std::min(m, c0 + block_size_);
    tile_flops[t] = update_column_range(front, m, k0, nb, c0, c1);
  };
  // The calling thread is always one participant, so a width-w update
  // needs w-1 leased helpers; tiles-1 caps the useful lease size. An empty
  // lease (nobody idle right now — the tree level is using them) runs the
  // panel inline via the same run() contract, never blocking.
  const unsigned max_helpers =
      std::min<unsigned>(workers_ - 1, static_cast<unsigned>(tiles - 1));
  WorkerLease lease = pool_->try_lease(max_helpers);
  if (lease.empty()) {
    leases_denied_.fetch_add(1, std::memory_order_relaxed);
  } else {
    leases_granted_.fetch_add(1, std::memory_order_relaxed);
  }
  lease.run(tiles, tile_body);
  long long flops = 0;
  for (const long long f : tile_flops) {
    flops += f;
  }
  return flops;
}

void FrontKernel::extend_add(double* front, std::size_t m,
                             const Index* front_pos, const Index* cb_rows,
                             std::size_t cm, const double* cb_values) const {
  for (std::size_t cc = 0; cc < cm; ++cc) {
    const Index gcol = cb_rows[cc];
    TM_ASSERT(front_pos[static_cast<std::size_t>(gcol)] >= 0,
              "child CB column outside the parent front");
    const std::size_t fc =
        static_cast<std::size_t>(front_pos[static_cast<std::size_t>(gcol)]);
    double* const colf = front + fc * m;
    for (std::size_t cr = cc; cr < cm; ++cr) {
      const Index grow = cb_rows[cr];
      const std::size_t fr =
          static_cast<std::size_t>(front_pos[static_cast<std::size_t>(grow)]);
      colf[fr] += cb_values[cc * cm + cr];
    }
  }
}

KernelLeaseStats FrontKernel::lease_stats() const {
  KernelLeaseStats stats;
  stats.leases_granted = leases_granted_.load(std::memory_order_relaxed);
  stats.leases_denied = leases_denied_.load(std::memory_order_relaxed);
  return stats;
}

std::unique_ptr<const FrontKernel> make_front_kernel(
    const KernelConfig& config) {
  return std::make_unique<const FrontKernel>(config);
}

}  // namespace treemem
