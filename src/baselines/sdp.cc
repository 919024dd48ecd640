#include "baselines/sdp.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace savg {

namespace {

/// Cosine similarity between the group-aggregate preference profiles of two
/// items, used by the diversity penalty.
double ItemSimilarity(const std::vector<std::vector<double>>& pref_by_item,
                      ItemId a, ItemId b) {
  const auto& pa = pref_by_item[a];
  const auto& pb = pref_by_item[b];
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (size_t u = 0; u < pa.size(); ++u) {
    dot += pa[u] * pb[u];
    na += pa[u] * pa[u];
    nb += pb[u] * pb[u];
  }
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  return dot / std::sqrt(na * nb);
}

}  // namespace

Result<Configuration> RunSdp(const SvgicInstance& instance,
                             const SdpOptions& options,
                             Partition* partition_out) {
  SAVG_RETURN_NOT_OK(instance.Validate());
  const int n = instance.num_users();
  const int m = instance.num_items();
  const int k = instance.num_slots();
  const bool social = instance.lambda() > 0.0;

  Partition partition = GreedyModularity(instance.graph());
  const auto groups = partition.Groups();

  Configuration config(n, k, m);
  std::vector<std::vector<double>> pref_by_item;  // lazily built for diversity
  if (options.diversity_weight > 0.0) {
    pref_by_item.assign(m, std::vector<double>(n, 0.0));
    for (ItemId c = 0; c < m; ++c) {
      for (UserId u = 0; u < n; ++u) pref_by_item[c][u] = instance.p(u, c);
    }
  }

  for (const auto& members : groups) {
    // Intra-subgroup aggregate utility per item.
    std::vector<double> utility(m, 0.0);
    std::vector<bool> in_group(n, false);
    for (UserId u : members) in_group[u] = true;
    for (UserId u : members) {
      for (ItemId c = 0; c < m; ++c) {
        utility[c] += social ? instance.ScaledP(u, c) : instance.p(u, c);
      }
    }
    if (social) {
      for (const FriendPair& pair : instance.pairs()) {
        if (!in_group[pair.u] || !in_group[pair.v]) continue;
        for (const ItemValue& iv : pair.weights) {
          utility[iv.item] += iv.value;
        }
      }
    }
    // Greedy top-k with the diversity penalty.
    std::vector<ItemId> bundle;
    std::vector<bool> chosen(m, false);
    for (int pick = 0; pick < k; ++pick) {
      ItemId best = -1;
      double best_score = -std::numeric_limits<double>::infinity();
      for (ItemId c = 0; c < m; ++c) {
        if (chosen[c]) continue;
        double score = utility[c];
        if (options.diversity_weight > 0.0) {
          double max_sim = 0.0;
          for (ItemId prev : bundle) {
            max_sim = std::max(max_sim,
                               ItemSimilarity(pref_by_item, c, prev));
          }
          score -= options.diversity_weight * max_sim * utility[c];
        }
        if (score > best_score) {
          best_score = score;
          best = c;
        }
      }
      chosen[best] = true;
      bundle.push_back(best);
    }
    for (UserId u : members) {
      for (SlotId s = 0; s < k; ++s) {
        SAVG_RETURN_NOT_OK(config.Set(u, s, bundle[s]));
      }
    }
  }
  if (partition_out != nullptr) *partition_out = std::move(partition);
  return config;
}

}  // namespace savg
