// Feasibility checkers — Algorithms 1 and 2 of the paper.
//
// These are the ground truth for every traversal algorithm in the library:
// tests validate each produced traversal / I/O schedule against them, and
// peaks reported by the optimizers must match the simulated peaks exactly.
#pragma once

#include <string>

#include "core/traversal.hpp"
#include "tree/tree.hpp"

namespace treemem {

/// Outcome of simulating a traversal.
struct CheckResult {
  bool feasible = false;
  /// Largest transient memory demand over the whole traversal. Only
  /// meaningful when the order itself is structurally valid.
  Weight peak = 0;
  /// Total write volume (out-of-core checker only).
  Weight io_volume = 0;
  /// Step at which the check failed (kNoNode-sized sentinel -1 if none).
  NodeId fail_step = -1;
  /// Human-readable failure description.
  std::string reason;
};

/// Structural validation + peak computation, out-tree semantics: `order`
/// must be a permutation of all nodes in which every node appears after its
/// parent. Throws treemem::Error if those structural rules are violated;
/// returns the memory peak (the least M for which Algorithm 1 succeeds).
Weight traversal_peak(const Tree& tree, const Traversal& order);

/// In-tree (bottom-up, multifrontal) semantics: every node appears after all
/// its children; executing x holds its children files, n_x and f_x, and
/// leaves f_x resident. Returns the peak. Section III-C's duality says
/// in_tree_traversal_peak(t, σ) == traversal_peak(t, reverse(σ)); the test
/// suite asserts this rather than assuming it.
Weight in_tree_traversal_peak(const Tree& tree, const Traversal& order);

/// Algorithm 2: checks an out-of-core traversal (order + write schedule)
/// against memory budget M and computes the I/O volume. Unlike
/// traversal_peak, structural violations are reported in the result rather
/// than thrown (this mirrors the paper's FAILURE return).
CheckResult check_out_of_core(const Tree& tree, const IoSchedule& schedule,
                              Weight memory);

/// Algorithm 1: checks an in-core traversal against memory budget M — the
/// out-of-core check of the same order with no writes, so both report the
/// same reasons and fail_step.
CheckResult check_in_core(const Tree& tree, const Traversal& order, Weight memory);

}  // namespace treemem
