// The dense front kernel — the dense math of the multifrontal engine.
//
// FrontalEngine (multifrontal/numeric.hpp) owns the sparse choreography of
// a front (row-set union, original-entry assembly, contribution-block slot
// protocol, live-entry metering); everything dense — the partial Cholesky
// of the leading η pivots and the scatter-add of a child's contribution
// block — goes through the FrontKernel.
//
// One algorithm: cache-blocked right-looking Cholesky. Panels of
// `block_size` columns are factored, then the trailing columns receive all
// panel updates in one pass, so the trailing matrix is streamed once per
// panel instead of once per pivot. When a panel's trailing update clears
// the volume gate, it is split into column tiles run on workers *leased*
// from the persistent pool (parallel/worker_pool.hpp): the panel claims
// whatever workers are idle right now — typically the tree-level
// executor's, near the root where its frontier has collapsed — and returns
// them at panel end. The lease never blocks and never spawns a thread;
// when nobody is idle the panel runs inline and the denial is counted
// (lease_stats / SolverStats::lease_denied). Below the gate, or with
// `workers == 1`, the update runs inline on the calling thread.
//
// Exactness contract: whatever the block size, worker count or lease
// outcome, every entry (r, c) receives its pivot updates in ascending k
// with one subtraction each, and zero multipliers are skipped — tiles
// write disjoint columns and never reassociate. The factor is therefore
// bit-identical to the right-looking scalar loop, which is this kernel
// at `KernelConfig{.block_size = 1, .workers = 1}` — the reference tests
// compare against (tests/dense per front, and across the 56-instance
// corpus in tests/multifrontal/numeric_parallel_test.cpp).
//
// Flop accounting (1 per sqrt, 1 per division, 2(m−c) per applied pivot
// update of column c, zero multipliers skipped) is independent of the
// configuration, so serial-vs-parallel flop equality tests hold under any
// settings.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>

#include "sparse/pattern.hpp"  // Index

namespace treemem {

class WorkerPool;

/// Tuning knobs of the front kernel, threaded through
/// multifrontal_cholesky and factor_parallel.
struct KernelConfig {
  /// Panel width and trailing-update tile width (clamped to >= 1). Default
  /// 16, measured with bench/front_kernels on the small-L2 CI-class box:
  /// across the 64–1024-row front sweep, block 16 beats 48 in 10 of 12
  /// cells — by up to 1.18× GFLOP/s, and within 4% in the two cells 48
  /// wins — because a 48-wide panel of a large front overflows the small
  /// L2. On a large-L2 part, rerun the sweep (front_kernels.csv) and raise
  /// this per run via SolverOptions::factorize.kernel.
  std::size_t block_size = 16;
  /// Maximum parallel width (calling thread included) of the trailing
  /// updates; 0 defers to the pool's size (which resolved TREEMEM_THREADS
  /// once, at pool construction). 1 never leases.
  unsigned workers = 0;
  /// Minimum trailing-update volume (multiply-subtract pairs) before a
  /// panel requests a lease; below it the update runs inline. Leasing
  /// costs a mutex claim + condvar wake (~µs), so the gate sits at 2^19
  /// pairs (~1 Mflop). A lease that finds zero idle workers runs the panel
  /// inline (never blocks) and counts lease_denied in lease_stats() /
  /// SolverStats. 0 forces a lease request on every panel (tests/TSan
  /// coverage of the leased path on small fronts).
  std::size_t min_parallel_volume = 1u << 19;
  /// Worker source for the leases; nullptr = the process-wide
  /// WorkerPool::instance(). Tests and benches pass private pools for
  /// deterministic counters.
  WorkerPool* pool = nullptr;
};

/// Per-kernel lease observability: how often trailing updates that cleared
/// the volume gate actually got pool workers, and how often they found
/// none idle and ran inline. One kernel instance serves one factorization
/// (FrontalEngine owns it), so these counters are per-run.
struct KernelLeaseStats {
  long long leases_granted = 0;
  long long leases_denied = 0;
};

/// The dense front kernel. Instances are thread-safe: one kernel is shared
/// by every worker of a parallel factorization, and all numeric state
/// lives in the caller's front buffer (the kernel keeps only atomic lease
/// tallies).
///
/// The front is a dense column-major m×m buffer (leading dimension m); only
/// the lower triangle is read or written.
class FrontKernel {
 public:
  /// Resolves every knob once (the pool lookup and its size do not belong
  /// on the per-panel path).
  explicit FrontKernel(const KernelConfig& config);

  /// Dense partial Cholesky of the leading `eta` pivots of the m×m front,
  /// one panel of block_size columns at a time. Returns the flop count.
  /// Throws treemem::Error on a non-positive pivot; `member_columns`
  /// (length eta, may be nullptr) names the original matrix column in
  /// that error.
  long long partial_factor(double* front, std::size_t m, std::size_t eta,
                           const Index* member_columns) const;

  /// Scatter-adds a child's cm×cm lower-triangular contribution block into
  /// the front: CB entry (cr, cc) lands at front position
  /// (front_pos[cb_rows[cr]], front_pos[cb_rows[cc]]).
  void extend_add(double* front, std::size_t m, const Index* front_pos,
                  const Index* cb_rows, std::size_t cm,
                  const double* cb_values) const;

  /// Lease grant/denial tallies of this kernel instance.
  KernelLeaseStats lease_stats() const;

 private:
  /// Factors panel columns [k0, k0+nb): per pivot k ascending, sqrt the
  /// diagonal, scale rows k+1..m of column k, and update the *panel*
  /// columns right of k. Columns >= k0+nb are untouched.
  long long factor_panel(double* front, std::size_t m, std::size_t k0,
                         std::size_t nb, const Index* member_columns) const;

  /// Applies panel [k0, k0+nb)'s updates to the trailing columns
  /// [k0+nb, m), inline or over leased column tiles.
  long long trailing_update(double* front, std::size_t m, std::size_t k0,
                            std::size_t nb) const;

  std::size_t block_size_;
  WorkerPool* pool_;  ///< nullptr when workers_ == 1 (never leases)
  unsigned workers_;
  std::size_t min_parallel_volume_;
  // Tallies, not synchronization: mutable because trailing_update is
  // const (the kernel is numerically stateless and stays shareable).
  mutable std::atomic<long long> leases_granted_{0};
  mutable std::atomic<long long> leases_denied_{0};
};

/// Builds the configured kernel. It may be shared across threads and
/// reused for any number of fronts.
std::unique_ptr<const FrontKernel> make_front_kernel(
    const KernelConfig& config);

}  // namespace treemem
