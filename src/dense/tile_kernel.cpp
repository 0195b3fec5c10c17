#include "dense/tile_kernel.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

// Bit-identity across instantiations, tile shapes and the scalar edges
// needs every update to round its product before the subtraction: this
// file must be compiled with -ffp-contract=off (CMakeLists.txt sets it
// for treemem_dense), or an FMA-capable build fuses some of them.

// Complete unrolling of the tile's fixed-trip loops, so its accumulators
// live in registers at any optimization level.
#if defined(__clang__)
#define TM_UNROLL _Pragma("unroll")
#else
#define TM_UNROLL _Pragma("GCC unroll 16")
#endif

namespace treemem {

namespace {

/// The register tile: kTileVectors vectors down each of kTileColumns
/// columns (3×4 = 12 accumulators: 12 rows × 4 columns with AVX2). Its
/// pivots' multipliers are packed kPivotChunk at a time; a longer panel
/// makes one register pass per chunk, still in ascending k.
constexpr std::size_t kTileVectors = 3;
constexpr std::size_t kPivotChunk = 64;

/// GCC/Clang vector extensions: the x86-64 baseline's SSE2 width (also
/// NEON's) and AVX2's.
using Vec2 = double __attribute__((vector_size(16)));
using Vec4 = double __attribute__((vector_size(32)));

template <class Vec>
constexpr std::size_t kLanes = sizeof(Vec) / sizeof(double);

/// One tile of kVectors·lanes rows × kTileColumns columns: loads the
/// block at `c` (front(r0, c0)) into registers, applies `count` pivots in
/// ascending k — `a` points at front(r0, kc), `mult` holds the
/// multipliers k-major — and stores it. kSkipZeros tests each multiplier
/// against ±0.0; the branch-free instantiation runs only when no
/// multiplier of the block is zero.
template <class Vec, std::size_t kVectors, bool kSkipZeros>
[[gnu::always_inline]] inline void apply_tile(double* c, const double* a,
                                              std::size_t m,
                                              const double* mult,
                                              std::size_t count) {
  constexpr std::size_t kLane = kLanes<Vec>;
  Vec acc[kTileColumns][kVectors];
  TM_UNROLL for (std::size_t j = 0; j < kTileColumns; ++j) {
    TM_UNROLL for (std::size_t i = 0; i < kVectors; ++i) {
      std::memcpy(&acc[j][i], c + j * m + i * kLane, sizeof(Vec));
    }
  }
  for (std::size_t k = 0; k < count; ++k) {
    Vec ak[kVectors];
    TM_UNROLL for (std::size_t i = 0; i < kVectors; ++i) {
      std::memcpy(&ak[i], a + k * m + i * kLane, sizeof(Vec));
    }
    TM_UNROLL for (std::size_t j = 0; j < kTileColumns; ++j) {
      const double l = mult[k * kTileColumns + j];
      if constexpr (kSkipZeros) {
        if (l == 0.0) {
          continue;
        }
      }
      TM_UNROLL for (std::size_t i = 0; i < kVectors; ++i) {
        acc[j][i] = acc[j][i] - ak[i] * l;
      }
    }
  }
  TM_UNROLL for (std::size_t j = 0; j < kTileColumns; ++j) {
    TM_UNROLL for (std::size_t i = 0; i < kVectors; ++i) {
      std::memcpy(c + j * m + i * kLane, &acc[j][i], sizeof(Vec));
    }
  }
}

/// One column of a partial block: rows [r_begin, r_end) of `col` receive
/// the packed pivots (`mult` strided by kTileColumns) in ascending k, with
/// the same skip and rounding as a tile, a vector of rows at a time and
/// the last rows one by one.
template <class Vec>
[[gnu::always_inline]] inline void apply_rows(double* col, const double* a,
                                              std::size_t m,
                                              const double* mult,
                                              std::size_t count,
                                              std::size_t r_begin,
                                              std::size_t r_end) {
  constexpr std::size_t kLane = kLanes<Vec>;
  for (std::size_t k = 0; k < count; ++k) {
    const double l = mult[k * kTileColumns];
    if (l == 0.0) {
      continue;
    }
    const double* const ak = a + k * m;
    std::size_t r = r_begin;
    for (; r + kLane <= r_end; r += kLane) {
      Vec x, y;
      std::memcpy(&x, col + r, sizeof(Vec));
      std::memcpy(&y, ak + r, sizeof(Vec));
      x = x - y * l;
      std::memcpy(col + r, &x, sizeof(Vec));
    }
    TM_UNROLL for (std::size_t t = 1; t < kLane; ++t) {
      if (r < r_end) {
        col[r] = col[r] - ak[r] * l;
        ++r;
      }
    }
  }
}

/// One row of a full column block, across its first kCols columns (a
/// triangle row holds fewer than kTileColumns): the entries stay in
/// registers while the pivots stream by in ascending k, with the skip.
template <std::size_t kCols>
[[gnu::always_inline]] inline void apply_row(double* c, const double* a,
                                             std::size_t m,
                                             const double* mult,
                                             std::size_t count) {
  double acc[kCols];
  TM_UNROLL for (std::size_t j = 0; j < kCols; ++j) { acc[j] = c[j * m]; }
  for (std::size_t k = 0; k < count; ++k) {
    const double ak = a[k * m];
    TM_UNROLL for (std::size_t j = 0; j < kCols; ++j) {
      const double l = mult[k * kTileColumns + j];
      if (l != 0.0) {
        acc[j] = acc[j] - ak * l;
      }
    }
  }
  TM_UNROLL for (std::size_t j = 0; j < kCols; ++j) { c[j * m] = acc[j]; }
}

/// The full rows of a column block starting at column c0 — rows from
/// c0 + kTileColumns − 1 down — in register tiles: kTileVectors vectors
/// tall, then one vector tall. Returns the first row no tile covered.
template <class Vec, bool kSkipZeros>
[[gnu::always_inline]] inline std::size_t apply_tiles(double* c,
                                                      const double* a,
                                                      std::size_t m,
                                                      const double* mult,
                                                      std::size_t count,
                                                      std::size_t c0) {
  constexpr std::size_t kLane = kLanes<Vec>;
  std::size_t r = c0 + kTileColumns - 1;
  for (; r + kTileVectors * kLane <= m; r += kTileVectors * kLane) {
    apply_tile<Vec, kTileVectors, kSkipZeros>(c + r, a + r, m, mult, count);
  }
  for (; r + kLane <= m; r += kLane) {
    apply_tile<Vec, 1, kSkipZeros>(c + r, a + r, m, mult, count);
  }
  return r;
}

/// TileKernel::update for one vector width. Per block of kTileColumns
/// columns and chunk of pivots: pack the multipliers, then run the block's
/// triangle (its first kTileColumns − 1 rows) and its last rows that fill
/// no tile row by row, and every other row in register tiles. A partial
/// block (fewer than kTileColumns columns, the range's last) runs column
/// by column.
template <class Vec>
[[gnu::always_inline]] inline long long update_columns(
    double* front, std::size_t m, std::size_t k0, std::size_t nb,
    std::size_t c_begin, std::size_t c_end) {
  double mult[kPivotChunk * kTileColumns];
  long long flops = 0;
  for (std::size_t c0 = c_begin; c0 < c_end; c0 += kTileColumns) {
    const std::size_t nc = std::min(kTileColumns, c_end - c0);
    for (std::size_t kc = k0; kc < k0 + nb; kc += kPivotChunk) {
      const std::size_t count = std::min(kPivotChunk, k0 + nb - kc);
      const double* const a = front + kc * m;
      bool dense = nc == kTileColumns;
      for (std::size_t k = 0; k < count; ++k) {
        for (std::size_t j = 0; j < nc; ++j) {
          const double l = a[k * m + c0 + j];  // front(c0 + j, kc + k)
          mult[k * kTileColumns + j] = l;
          if (l == 0.0) {
            dense = false;
          } else {
            flops += 2 * static_cast<long long>(m - c0 - j);
          }
        }
      }
      if (nc < kTileColumns) {
        for (std::size_t j = 0; j < nc; ++j) {
          apply_rows<Vec>(front + (c0 + j) * m, a, m, mult + j, count,
                          c0 + j, m);
        }
        continue;
      }
      double* const c = front + c0 * m;
      static_assert(kTileColumns == 4, "the triangle below has 3 rows");
      apply_row<1>(c + c0, a + c0, m, mult, count);
      apply_row<2>(c + c0 + 1, a + c0 + 1, m, mult, count);
      apply_row<3>(c + c0 + 2, a + c0 + 2, m, mult, count);
      const std::size_t r = dense ? apply_tiles<Vec, false>(c, a, m, mult,
                                                            count, c0)
                                  : apply_tiles<Vec, true>(c, a, m, mult,
                                                           count, c0);
      for (std::size_t rr = r; rr < m; ++rr) {
        apply_row<kTileColumns>(c + rr, a + rr, m, mult, count);
      }
    }
  }
  return flops;
}

long long update_baseline(double* front, std::size_t m, std::size_t k0,
                          std::size_t nb, std::size_t c_begin,
                          std::size_t c_end) {
  return update_columns<Vec2>(front, m, k0, nb, c_begin, c_end);
}

#if defined(__x86_64__)
// Compiled for AVX2 whatever the build's -march; only called once
// __builtin_cpu_supports has vouched for the CPU.
__attribute__((target("avx2"))) long long update_avx2(
    double* front, std::size_t m, std::size_t k0, std::size_t nb,
    std::size_t c_begin, std::size_t c_end) {
  return update_columns<Vec4>(front, m, k0, nb, c_begin, c_end);
}
#endif

}  // namespace

std::span<const TileKernel> supported_tile_kernels() {
  static const std::vector<TileKernel> kernels = [] {
    std::vector<TileKernel> list;
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) {
      list.push_back({"avx2", &update_avx2});
    }
#endif
    list.push_back({"baseline", &update_baseline});
    return list;
  }();
  return kernels;
}

}  // namespace treemem
