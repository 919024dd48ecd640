// Exhaustive search over all SAVG k-Configurations.
//
// The solution space is Theta(m^{nk}) (Section 3.1), so this is only usable
// as a test oracle on tiny instances; it is the ground truth against which
// the IP solver, the LP upper bound, and the approximation-ratio property
// tests are validated.

#pragma once

#include <cstdint>

#include "core/configuration.h"
#include "core/problem.h"
#include "util/status.h"

namespace savg {

struct BruteForceOptions {
  double time_limit_seconds = 120.0;
  uint64_t max_configurations = 500'000'000;
};

struct BruteForceResult {
  Configuration config;
  double scaled_objective = 0.0;
  uint64_t configurations_examined = 0;
};

/// Finds the exact optimum of the scaled SVGIC objective. Returns
/// kResourceExhausted if limits are hit before the search completes.
Result<BruteForceResult> SolveBruteForce(
    const SvgicInstance& instance, const BruteForceOptions& options = {});

}  // namespace savg
