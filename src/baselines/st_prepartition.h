// Pre-partitioning wrapper for SVGIC-ST baselines (Section 6.8).
//
// None of the baseline algorithms is aware of the subgroup size constraint
// M, so the paper evaluates them in two modes: "-NP" (run as-is, violations
// counted) and "-P" (pre-partition the user set into ceil(n/M) balanced
// subgroups, run the baseline independently per subgroup, and merge).
// Note that even "-P" baselines can violate the cap when two pre-partitioned
// subgroups happen to pick the same item at the same slot — exactly the
// effect Figure 13 measures.

#pragma once

#include <functional>

#include "core/configuration.h"
#include "core/problem.h"
#include "util/status.h"

namespace savg {

/// Runs a baseline on an instance (used per pre-partitioned subgroup).
using BaselineRunner =
    std::function<Result<Configuration>(const SvgicInstance&)>;

/// Pre-partitions into balanced subgroups of size <= size_cap, runs
/// `runner` per subgroup, and merges the per-subgroup configurations back
/// into one global configuration.
Result<Configuration> RunWithPrepartition(const SvgicInstance& instance,
                                          int size_cap, uint64_t seed,
                                          const BaselineRunner& runner);

}  // namespace savg
