// SDP: Social-aware Diverse and Preference selection (modeled after SDSSel
// [68], the paper's "subgroup-by-friendship" baseline).
//
// Pre-partitions the shopping group into socially tight subgroups by greedy
// modularity maximization on the friendship graph, then selects for each
// subgroup its top-k items by intra-subgroup aggregate utility (scaled
// preference plus intra-subgroup social weights), with a diversity pass
// that penalizes items too similar to ones already picked. The partition is
// static across slots — exactly the limitation (no CID flexibility) the
// paper contrasts AVG against.

#pragma once

#include "core/configuration.h"
#include "core/problem.h"
#include "graph/community.h"
#include "util/status.h"

namespace savg {

struct SdpOptions {
  /// Diversity penalty: an item's score is reduced by this factor times its
  /// preference-profile similarity to already selected items.
  double diversity_weight = 0.2;
};

/// Runs the socially-tight-subgroup baseline. `partition_out` (optional)
/// receives the static partition used.
Result<Configuration> RunSdp(const SvgicInstance& instance,
                             const SdpOptions& options = {},
                             Partition* partition_out = nullptr);

}  // namespace savg
