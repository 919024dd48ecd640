// Projects a compact-LP simplex basis across an instance mutation.
//
// A live session caches the optimal basis of its last compact-LP solve.
// After a mutation the LP of the updated instance has shifted indices:
// columns appear (an item became useful for a user, a new user or pair
// weight), disappear (preferences zeroed, users deactivated), or merely
// move. ProjectCompactBasis matches entities by their stable CompactLpKeys
// identity and carries each surviving entity's basis status over; new
// columns enter nonbasic-at-lower-bound and new rows enter with their
// logical (slack) basic — the exact shape of a cold basis for the new
// part, so the composite phase 1 of lp/simplex.h only has to repair the
// (small) perturbed region instead of re-crashing the whole basis.
//
// Each key space (columns, rows) is matched through one flat
// open-addressing table built per call (two allocations, no per-key heap
// node): the first old occurrence of a key wins, and each old key matches
// at most one new entity.
//
// The projected basis may have the wrong number of basic columns when
// basic entities vanished; SolveLp's warm-basis repair handles that.

#pragma once

#include "core/lp_formulation.h"
#include "lp/lp_model.h"

namespace savg {

/// Difference summary between two key sets (cold-fallback heuristic).
/// Dropped counts are distinct old keys left unmatched.
struct BasisProjectionDelta {
  int surviving_cols = 0;  ///< columns present in both LPs
  int new_cols = 0;        ///< columns only in the new LP
  int dropped_cols = 0;    ///< columns only in the old LP
  int new_rows = 0;
  int dropped_rows = 0;

  /// Fraction of the new LP's columns without a carried-over status plus
  /// the dropped fraction of the old; 0 = identical shape.
  double ChangedFraction() const {
    const int denom = surviving_cols + new_cols;
    if (denom == 0) return 1.0;
    return static_cast<double>(new_cols + dropped_cols) / denom;
  }
};

/// Projects `old_basis` (statuses keyed by `old_keys`) onto the LP
/// described by `new_keys`. `delta` (optional) receives the change
/// summary.
LpBasis ProjectCompactBasis(const LpBasis& old_basis,
                            const CompactLpKeys& old_keys,
                            const CompactLpKeys& new_keys,
                            BasisProjectionDelta* delta = nullptr);

}  // namespace savg
