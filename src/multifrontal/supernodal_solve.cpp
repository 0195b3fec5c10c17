// Triangular solves with the supernodal factor (multifrontal/numeric.hpp).
//
// Forward (L y = b) walks the supernodes children first, backward (Lᵀ x =
// y) parents first; the front structure numbers parents before children,
// so that is a descending and an ascending sweep. Per supernode the panel
// is applied to the front rows of every right-hand side:
//   * a small front sweeps its indexed rows in place, one column of the
//     panel at a time;
//   * a large one gathers its rows into a dense buffer, runs the panel's
//     columns on it — contiguous axpys forward, dot products with four
//     independent accumulators backward — and scatters the rows back.
// The forward arithmetic is the same on both paths; the backward one
// differs in its summation order only. Which path a front takes depends on
// the front alone, and every right-hand side gets the arithmetic of a
// single-column solve, so a blocked solve matches per-column solves bit for
// bit. That needs every product rounded before it is subtracted: this file
// is compiled with -ffp-contract=off (CMakeLists.txt), as the dense kernel
// is.
#include <algorithm>
#include <memory>

#include "multifrontal/numeric.hpp"

namespace treemem {

namespace {

/// Fronts of at least this order take the gathered path: below it the
/// gather and scatter cost about as much as the indexed sweep they replace.
constexpr std::size_t kGatherOrder = 16;

void forward_indexed(const double* col, std::span<const Index> rows,
                     std::size_t eta, double* x) {
  const std::size_t m = rows.size();
  for (std::size_t k = 0; k < eta; ++k) {
    double& xk = x[rows[k]];
    xk /= col[0];
    const double yk = xk;
    for (std::size_t i = 1; i < m - k; ++i) {
      x[rows[k + i]] -= col[i] * yk;
    }
    col += m - k;
  }
}

/// Backward runs the panel's columns last to first, from its end.
void backward_indexed(const double* panel_end, std::span<const Index> rows,
                      std::size_t eta, double* x) {
  const std::size_t m = rows.size();
  const double* col = panel_end;
  for (std::size_t k = eta; k-- > 0;) {
    col -= m - k;
    double sum = x[rows[k]];
    for (std::size_t i = 1; i < m - k; ++i) {
      sum -= col[i] * x[rows[k + i]];
    }
    x[rows[k]] = sum / col[0];
  }
}

/// Forward on `nrhs` gathered columns of length m (column c at w + c·m).
void forward_dense(const double* col, std::size_t m, std::size_t eta,
                   double* w, std::size_t nrhs) {
  for (std::size_t k = 0; k < eta; ++k) {
    for (std::size_t c = 0; c < nrhs; ++c) {
      double* const wc = w + c * m + k;
      wc[0] /= col[0];
      const double yk = wc[0];
      for (std::size_t i = 1; i < m - k; ++i) {
        wc[i] -= col[i] * yk;
      }
    }
    col += m - k;
  }
}

/// Σ l[i]·v[i] over four interleaved partial sums.
double dot4(const double* l, const double* v, std::size_t len) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    s0 += l[i] * v[i];
    s1 += l[i + 1] * v[i + 1];
    s2 += l[i + 2] * v[i + 2];
    s3 += l[i + 3] * v[i + 3];
  }
  for (; i < len; ++i) {
    s0 += l[i] * v[i];
  }
  return (s0 + s1) + (s2 + s3);
}

void backward_dense(const double* panel_end, std::size_t m, std::size_t eta,
                    double* w, std::size_t nrhs) {
  const double* col = panel_end;
  for (std::size_t k = eta; k-- > 0;) {
    col -= m - k;
    for (std::size_t c = 0; c < nrhs; ++c) {
      double* const wc = w + c * m + k;
      wc[0] = (wc[0] - dot4(col + 1, wc + 1, m - k - 1)) / col[0];
    }
  }
}

}  // namespace

void solve_with_factor(const CholeskyFactor& factor, std::span<double> columns,
                       std::size_t nrhs) {
  const FrontStructure& fronts = *factor.fronts;
  const auto n = static_cast<std::size_t>(factor.size());
  TM_CHECK(columns.size() == n * nrhs,
           "solve: " << columns.size() << " right-hand-side entries, expected "
                     << nrhs << " columns of " << n);
  TM_CHECK(factor.values.size() ==
               static_cast<std::size_t>(fronts.panel_entries()),
           "solve: factor values do not fill its panels");
  const NodeId p = fronts.supernodes();
  std::size_t max_front = 0;
  for (NodeId s = 0; s < p; ++s) {
    max_front = std::max(max_front, fronts.front_size(s));
  }
  const auto w = std::make_unique_for_overwrite<double[]>(
      max_front >= kGatherOrder ? max_front * nrhs : 0);
  double* const x = columns.data();

  // Gathers the front rows of every column into w (column-major, m rows),
  // or scatters the first `count` of them back.
  const auto gather = [&](std::span<const Index> rows) {
    for (std::size_t c = 0; c < nrhs; ++c) {
      for (std::size_t i = 0; i < rows.size(); ++i) {
        w[c * rows.size() + i] = x[c * n + static_cast<std::size_t>(rows[i])];
      }
    }
  };
  const auto scatter = [&](std::span<const Index> rows, std::size_t count) {
    for (std::size_t c = 0; c < nrhs; ++c) {
      for (std::size_t i = 0; i < count; ++i) {
        x[c * n + static_cast<std::size_t>(rows[i])] = w[c * rows.size() + i];
      }
    }
  };

  for (NodeId s = p; s-- > 0;) {
    const auto rows = fronts.rows(s);
    const std::size_t eta = fronts.members(s).size();
    const double* const panel =
        factor.values.data() + fronts.value_ptr[static_cast<std::size_t>(s)];
    if (rows.size() >= kGatherOrder) {
      gather(rows);
      forward_dense(panel, rows.size(), eta, w.get(), nrhs);
      scatter(rows, rows.size());
    } else {
      for (std::size_t c = 0; c < nrhs; ++c) {
        forward_indexed(panel, rows, eta, x + c * n);
      }
    }
  }
  for (NodeId s = 0; s < p; ++s) {
    const auto rows = fronts.rows(s);
    const std::size_t eta = fronts.members(s).size();
    const double* const panel_end =
        factor.values.data() +
        fronts.value_ptr[static_cast<std::size_t>(s) + 1];
    if (rows.size() >= kGatherOrder) {
      gather(rows);
      backward_dense(panel_end, rows.size(), eta, w.get(), nrhs);
      scatter(rows, eta);  // only the members changed
    } else {
      for (std::size_t c = 0; c < nrhs; ++c) {
        backward_indexed(panel_end, rows, eta, x + c * n);
      }
    }
  }
}

std::vector<double> solve_with_factor(const CholeskyFactor& factor,
                                      std::vector<double> rhs) {
  TM_CHECK(rhs.size() == static_cast<std::size_t>(factor.size()),
           "solve: rhs size mismatch");
  solve_with_factor(factor, std::span<double>(rhs), 1);
  return rhs;
}

}  // namespace treemem
