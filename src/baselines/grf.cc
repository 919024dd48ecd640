#include "baselines/grf.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/random.h"

namespace savg {
namespace {

constexpr int kMaxKmeansRounds = 30;

}  // namespace

Result<Configuration> RunGrf(const SvgicInstance& instance,
                             const GrfOptions& options,
                             Partition* partition_out) {
  SAVG_RETURN_NOT_OK(instance.Validate());
  const int n = instance.num_users();
  const int m = instance.num_items();
  const int k = instance.num_slots();
  Rng rng(options.seed);

  int g = options.num_clusters > 0 ? options.num_clusters
                                   : std::max(2, n / 5);
  g = std::min(g, n);

  // L2-normalized preference vectors.
  std::vector<std::vector<double>> vec(n, std::vector<double>(m, 0.0));
  for (UserId u = 0; u < n; ++u) {
    double norm = 0.0;
    for (ItemId c = 0; c < m; ++c) {
      vec[u][c] = instance.p(u, c);
      norm += vec[u][c] * vec[u][c];
    }
    norm = std::sqrt(norm);
    if (norm > 0) {
      for (ItemId c = 0; c < m; ++c) vec[u][c] /= norm;
    }
  }

  // k-means with random distinct seeds.
  auto seeds = rng.SampleWithoutReplacement(n, g);
  std::vector<std::vector<double>> centroid(g);
  for (int i = 0; i < g; ++i) centroid[i] = vec[seeds[i]];
  std::vector<int> assign(n, 0);
  for (int round = 0; round < kMaxKmeansRounds; ++round) {
    bool changed = false;
    for (UserId u = 0; u < n; ++u) {
      int best = assign[u];
      double best_d = std::numeric_limits<double>::infinity();
      for (int i = 0; i < g; ++i) {
        double d = 0.0;
        for (ItemId c = 0; c < m; ++c) {
          const double diff = vec[u][c] - centroid[i][c];
          d += diff * diff;
        }
        if (d < best_d) {
          best_d = d;
          best = i;
        }
      }
      if (best != assign[u]) {
        assign[u] = best;
        changed = true;
      }
    }
    if (!changed && round > 0) break;
    for (int i = 0; i < g; ++i) {
      std::fill(centroid[i].begin(), centroid[i].end(), 0.0);
    }
    std::vector<int> count(g, 0);
    for (UserId u = 0; u < n; ++u) {
      ++count[assign[u]];
      for (ItemId c = 0; c < m; ++c) centroid[assign[u]][c] += vec[u][c];
    }
    for (int i = 0; i < g; ++i) {
      if (count[i] == 0) {
        // Re-seed an empty cluster at a random user.
        centroid[i] = vec[rng.UniformInt(static_cast<uint64_t>(n))];
        continue;
      }
      for (ItemId c = 0; c < m; ++c) centroid[i][c] /= count[i];
    }
  }

  Partition partition;
  partition.community = assign;
  partition.num_communities = g;
  Normalize(&partition);

  // Per-cluster top-k by aggregate preference (no social awareness).
  Configuration config(n, k, m);
  for (const auto& members : partition.Groups()) {
    std::vector<std::pair<double, ItemId>> scored(m);
    for (ItemId c = 0; c < m; ++c) {
      double acc = 0.0;
      for (UserId u : members) acc += instance.p(u, c);
      scored[c] = {acc, c};
    }
    std::partial_sort(scored.begin(), scored.begin() + k, scored.end(),
                      [](const auto& a, const auto& b) {
                        if (a.first != b.first) return a.first > b.first;
                        return a.second < b.second;
                      });
    for (UserId u : members) {
      for (SlotId s = 0; s < k; ++s) {
        SAVG_RETURN_NOT_OK(config.Set(u, s, scored[s].second));
      }
    }
  }
  if (partition_out != nullptr) *partition_out = std::move(partition);
  return config;
}

}  // namespace savg
