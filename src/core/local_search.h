// Post-rounding local search refinement.
//
// CSF rounding carries the approximation guarantee; a cheap hill-climbing
// pass on top never hurts and often recovers the last few percent the
// randomized variant leaves on the table (AVG-D typically needs none).
// Moves considered:
//
//  * reassign: change A(u, s) to any eligible item (including joining an
//    existing co-display group at that slot),
//  * swap: exchange A(u, s) and A(u, s') when that aligns u with different
//    groups at both slots.
//
// Both moves preserve completeness, the no-duplication constraint, and —
// when a size cap is given — ST feasibility. The search is deterministic
// (first-improvement over a fixed scan order, repeated until a sweep makes
// no progress or the sweep budget is exhausted).

#pragma once

#include "core/configuration.h"
#include "core/csf.h"
#include "core/problem.h"
#include "util/status.h"

namespace savg {

struct LocalSearchOptions {
  int max_sweeps = 8;
  /// Subgroup size cap to respect (kNoSizeCap = plain SVGIC).
  int size_cap = CsfState::kNoSizeCap;
};

struct LocalSearchResult {
  Configuration config;
  int moves_taken = 0;
  int sweeps = 0;
  double initial_value = 0.0;  ///< scaled total before
  double final_value = 0.0;    ///< scaled total after
};

/// Improves a complete configuration in place (copy returned). The input
/// must satisfy CheckValid(); the output does too.
Result<LocalSearchResult> ImproveByLocalSearch(
    const SvgicInstance& instance, const Configuration& config,
    const LocalSearchOptions& options = {});

}  // namespace savg
