// The trailing-update microkernel's compiled instantiations — internal to
// the dense layer (front_kernel.cpp), its tests and bench/front_kernels.
//
// One register-tiled template computes every right-looking update of the
// front kernel, the panel's and the trailing block's. It is compiled once
// per ISA: an AVX2 instantiation (built with a target attribute, so the
// library itself needs no -mavx2) and the baseline instantiation every
// host of the build's ISA can run. The best one the CPU supports is chosen
// once, at first use. There is no option that picks another: the list
// below exists so tests can check every instantiation this host can run
// against the scalar oracle.
#pragma once

#include <cstddef>
#include <span>

namespace treemem {

/// Columns per register tile. FrontKernel factors its panels in blocks of
/// this width so the panel's own updates run on whole tiles too.
inline constexpr std::size_t kTileColumns = 4;

/// One compiled instantiation of the register-tiled update.
struct TileKernel {
  /// "avx2" or "baseline".
  const char* name;
  /// Applies panel pivots [k0, k0+nb) to columns [c_begin, c_end) of the
  /// column-major m×m front: every entry (r, c), r ≥ c, receives
  /// front(r, c) −= front(r, k) · front(c, k) for each pivot k in
  /// ascending order, one rounded multiply and one subtraction per pivot,
  /// skipping pivots whose multiplier front(c, k) is ±0.0. Returns the
  /// flops, 2(m−c) per applied (k, c) pair. Writes only columns
  /// [c_begin, c_end), so disjoint column ranges may run concurrently.
  long long (*update)(double* front, std::size_t m, std::size_t k0,
                      std::size_t nb, std::size_t c_begin, std::size_t c_end);
};

/// The instantiations this CPU can run, fastest first. FrontKernel uses
/// the first one.
std::span<const TileKernel> supported_tile_kernels();

}  // namespace treemem
