// The fractional solution X* of the SVGIC relaxation, in the compact
// (slot-free) form of LP_SIMP plus helpers used by the rounding phase.
//
// By Observation 2 of the paper, an optimal compact solution {x_u^c}
// expands to an optimal slot-indexed solution x*_{u,s}^c = x_u^c / k, so
// the rounding algorithms only ever need the compact matrix (XCompact);
// a slot-indexed factor is XCompact(u, c) / num_slots for every slot s.
//
// BuildSupporters() materializes, per item, the users with a non-negligible
// utility factor, sorted descending. This is the "decision dilution"
// structure (Section 6.4): CSF and AVG-D only ever touch these entries,
// which is what makes m = 10000 instances tractable.

#pragma once

#include <vector>

#include "core/problem.h"
#include "lp/lp_model.h"

namespace savg {

/// One user supporting an item with utility factor x (compact scale).
struct Supporter {
  UserId user = -1;
  double x = 0.0;  ///< compact factor x_u^c in [0, 1]
};

struct FractionalSolution {
  int num_users = 0;
  int num_items = 0;
  int num_slots = 0;
  /// Compact factors, row-major num_users x num_items; each row sums to k.
  std::vector<double> x;
  /// Scaled LP objective (sum p' x + sum w y at the fractional optimum).
  double lp_objective = 0.0;
  /// True if produced by the exact simplex (vs the approximate solver).
  bool exact = false;
  double solve_seconds = 0.0;
  /// Simplex pivots spent on this relaxation (0 for non-simplex paths).
  int simplex_iterations = 0;
  /// True when the solve reused a caller-supplied warm-start basis.
  bool warm_started = false;
  /// Per-phase simplex time breakdown (zero for non-simplex paths).
  LpStats lp_stats;
  /// Final simplex basis of the compact LP; reusable as a warm start for
  /// a related instance (same shape, different lambda / objective).
  LpBasis lp_basis;

  double XCompact(UserId u, ItemId c) const {
    return x[static_cast<size_t>(u) * num_items + c];
  }

  /// Per-item supporter lists (descending by x), values above `tol` only.
  /// Sets active_items to the items with at least one supporter.
  void BuildSupporters(double tol = 1e-9);

  const std::vector<Supporter>& SupportersOf(ItemId c) const {
    return supporters_[c];
  }
  const std::vector<ItemId>& active_items() const { return active_items_; }
  /// Items supported by a given user (reverse index).
  const std::vector<ItemId>& ItemsOfUser(UserId u) const {
    return items_of_user_[u];
  }
  bool HasSupporters() const { return !supporters_.empty(); }

 private:
  std::vector<std::vector<Supporter>> supporters_;
  std::vector<ItemId> active_items_;
  std::vector<std::vector<ItemId>> items_of_user_;
};

}  // namespace savg
