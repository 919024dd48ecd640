// GRF: Group Recommendation and Formation (modeled after Roy et al. [62],
// the paper's "subgroup-by-preference" baseline).
//
// Clusters users by preference-vector similarity (k-means with cosine-like
// normalized vectors), ignoring the social topology entirely, then displays
// to each cluster its top-k items by aggregate preference. Like SDP, the
// partition is static across display slots.

#pragma once

#include <cstdint>

#include "core/configuration.h"
#include "core/problem.h"
#include "graph/community.h"
#include "util/status.h"

namespace savg {

struct GrfOptions {
  /// Number of preference clusters; 0 = heuristic default max(2, n/5).
  int num_clusters = 0;
  uint64_t seed = 7;
};

/// Runs the preference-clustering baseline. `partition_out` (optional)
/// receives the static partition used.
Result<Configuration> RunGrf(const SvgicInstance& instance,
                             const GrfOptions& options = {},
                             Partition* partition_out = nullptr);

}  // namespace savg
