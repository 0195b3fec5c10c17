#include "dense/front_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "dense/tile_kernel.hpp"
#include "parallel/worker_pool.hpp"
#include "support/check.hpp"

namespace treemem {

FrontKernel::FrontKernel(const KernelConfig& config)
    : FrontKernel(config, supported_tile_kernels().front()) {}

FrontKernel::FrontKernel(const KernelConfig& config,
                         const TileKernel& tile_kernel)
    : tile_kernel_(&tile_kernel),
      block_size_(std::max<std::size_t>(1, config.block_size)),
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
    flops += factor_panel(front, m, k0, width, member_columns);
    if (k0 + width < m) {
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
  // Left-looking across blocks of kTileColumns panel columns, right-
  // looking inside one: a block first receives the panel pivots left of
  // it, in one tile pass, then factors its own columns. Each entry still
  // receives its pivots in ascending k. Empty updates are not called: on
  // the many tiny fronts the call costs more than the work.
  for (std::size_t c0 = k0; c0 < k0 + nb; c0 += kTileColumns) {
    const std::size_t c1 = std::min(k0 + nb, c0 + kTileColumns);
    if (c0 > k0) {
      flops += tile_kernel_->update(front, m, k0, c0 - k0, c0, c1);
    }
    for (std::size_t k = c0; k < c1; ++k) {
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
      if (k + 1 < c1) {
        flops += tile_kernel_->update(front, m, k, 1, k + 1, c1);
      }
    }
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
    return tile_kernel_->update(front, m, k0, nb, c_begin, m);
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
    tile_flops[t] = tile_kernel_->update(front, m, k0, nb, c0, c1);
  };
  // The calling thread is always one participant, so a width-w update
  // needs w-1 leased helpers; tiles-1 caps the useful lease size. An empty
  // lease (nobody idle right now — the tree level is using them) runs the
  // panel inline via the same run() contract, never blocking.
  const unsigned max_helpers =
      std::min<unsigned>(workers_ - 1, static_cast<unsigned>(tiles - 1));
  pool_->try_lease(max_helpers).run(tiles, tile_body);
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

std::unique_ptr<const FrontKernel> make_front_kernel(
    const KernelConfig& config) {
  return std::make_unique<const FrontKernel>(config);
}

}  // namespace treemem
