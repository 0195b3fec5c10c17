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
// panel updates in one pass. Every update — the panel's own and the
// trailing block's — runs one register-tiled microkernel
// (dense/tile_kernel.hpp): a tile of 24 rows × 4 columns (AVX-512; 12 with
// AVX2) is loaded into registers once per panel, receives every pivot of
// the panel and is stored once. When a panel's trailing update clears the
// volume gate, it is split into column tiles run on workers *leased* from
// the persistent pool (parallel/worker_pool.hpp): one WorkerPool::run call
// per panel claims whatever workers are idle right now — typically the
// tree-level executor's, near the root where its frontier has collapsed —
// and returns them at panel end. The lease never blocks and never spawns a thread;
// when nobody is idle the panel runs inline. The pool is the one lease
// record: it counts every grant and denial (WorkerPool::stats(), exported
// as treemem_pool_leases_*_total) and traces each as an instant. The
// kernel keeps no tally and records no trace event of its own; the
// caller's per-front span covers it. Below the gate, or with
// `workers == 1`, the update runs inline on the calling thread.
//
// ISA dispatch: AVX-512, AVX2 or baseline, picked at runtime. The
// microkernel is compiled for AVX-512 and AVX2 (through target attributes,
// whatever the build's -march) and for the build's baseline ISA; the first
// use picks the widest one __builtin_cpu_supports reports. No option
// chooses: every instantiation gives the same bits.
//
// Exactness contract: whatever the block size, worker count, lease outcome
// or instantiation, every entry (r, c) receives its pivot updates in
// ascending k, each one rounded multiply and one subtraction, and zero
// multipliers (±0.0) are skipped — tiles write disjoint columns and never
// reassociate. treemem_dense is compiled with -ffp-contract=off, so no
// multiply-subtract fuses into an FMA even where -march allows one (CI
// builds with -march=x86-64-v3 to check). The factor is therefore
// bit-identical to the right-looking scalar loop, which is this kernel at
// `KernelConfig{.block_size = 1, .workers = 1}` — the reference tests
// compare against (tests/dense per front and per instantiation, and across
// the 56-instance corpus in tests/multifrontal/numeric_parallel_test.cpp).
//
// Flop accounting (1 per sqrt, 1 per division, 2(m−c) per applied pivot
// update of column c, zero multipliers skipped) is independent of the
// configuration, so serial-vs-parallel flop equality tests hold under any
// settings.
#pragma once

#include <cstddef>
#include <memory>

#include "sparse/pattern.hpp"  // Index

namespace treemem {

class WorkerPool;
struct TileKernel;

/// Tuning knobs of the front kernel, threaded through
/// multifrontal_cholesky and factor_parallel.
struct KernelConfig {
  /// Panel width and trailing-update tile width (clamped to >= 1). Default
  /// 16. bench/front_kernels swept 8, 16, 32, 48 and 96 with the register-
  /// tiled kernel's AVX-512 instantiation on a 4-core Xeon (medians of 3
  /// sweeps, 64–1024-row fronts, inline): no width wins consistently — the
  /// best one per front beats 16 by at most 1.23×, against a 29% median
  /// run-to-run spread per cell; the AVX2 instantiation read 1.19× against
  /// 16% — since a tile keeps its rows in registers for a whole panel at
  /// any width. Rerun the sweep (front_kernels.csv) on a new machine and
  /// set this per run via SolverOptions::factorize.kernel.
  std::size_t block_size = 16;
  /// Maximum parallel width (calling thread included) of the trailing
  /// updates; 0 defers to the pool's size (which resolved TREEMEM_THREADS
  /// once, at pool construction). 1 never leases.
  unsigned workers = 0;
  /// Minimum trailing-update volume (multiply-subtract pairs) before a
  /// panel requests a lease; below it the update runs inline. Leasing
  /// costs a mutex claim + condvar wake (~µs), so the gate sits at 2^19
  /// pairs (~1 Mflop). A lease that finds zero idle workers runs the panel
  /// inline (never blocks); the pool counts the denial in
  /// WorkerPool::stats().leases_denied. 0 forces a lease request on every
  /// panel (tests/TSan coverage of the leased path on small fronts).
  std::size_t min_parallel_volume = 1u << 19;
  /// Worker source for the leases; nullptr = the process-wide
  /// WorkerPool::instance(). Tests and benches pass private pools for
  /// deterministic counters.
  WorkerPool* pool = nullptr;
};

/// The dense front kernel. Instances are thread-safe: one kernel is shared
/// by every worker of a parallel factorization, and all numeric state
/// lives in the caller's front buffer.
///
/// The front is a dense column-major m×m buffer (leading dimension m); only
/// the lower triangle is read or written.
class FrontKernel {
 public:
  /// Resolves every knob once (the pool lookup and its size do not belong
  /// on the per-panel path) and runs the fastest tile-kernel instantiation
  /// this CPU supports.
  explicit FrontKernel(const KernelConfig& config);
  /// Runs the given instantiation instead — a seam for tests that check
  /// each one of dense/tile_kernel.hpp's supported_tile_kernels().
  FrontKernel(const KernelConfig& config, const TileKernel& tile_kernel);

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

 private:
  /// Factors panel columns [k0, k0+nb), kTileColumns at a time: a block
  /// receives the panel pivots left of it, then per pivot k ascending the
  /// diagonal is square-rooted, rows k+1..m of column k are scaled and the
  /// block's columns right of k updated. Columns >= k0+nb are untouched.
  long long factor_panel(double* front, std::size_t m, std::size_t k0,
                         std::size_t nb, const Index* member_columns) const;

  /// Applies panel [k0, k0+nb)'s updates to the trailing columns
  /// [k0+nb, m), inline or over leased column tiles.
  long long trailing_update(double* front, std::size_t m, std::size_t k0,
                            std::size_t nb) const;

  const TileKernel* tile_kernel_;
  std::size_t block_size_;
  WorkerPool* pool_;  ///< nullptr when workers_ == 1 (never leases)
  unsigned workers_;
  std::size_t min_parallel_volume_;
};

/// Builds the configured kernel. It may be shared across threads and
/// reused for any number of fronts.
std::unique_ptr<const FrontKernel> make_front_kernel(
    const KernelConfig& config);

}  // namespace treemem
