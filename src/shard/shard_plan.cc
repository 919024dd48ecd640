#include "shard/shard_plan.h"

#include <algorithm>
#include <sstream>

#include "graph/community.h"
#include "util/random.h"

namespace savg {

std::string ShardStats::DebugString() const {
  std::ostringstream out;
  out << num_shards << " shards, sizes [" << min_size << ", " << max_size
      << "] (balance " << balance << "), " << cut_pairs
      << " cut pairs carrying " << cut_weight_fraction * 100.0
      << "% of pair weight";
  return out.str();
}

std::vector<int> ShardPlan::AbsorbNewUsers(int num_users) {
  std::vector<int> grown;
  while (static_cast<int>(shard_of.size()) < num_users) {
    int smallest = 0;
    for (int s = 1; s < num_shards(); ++s) {
      if (users[s].size() < users[smallest].size()) smallest = s;
    }
    const UserId u = static_cast<UserId>(shard_of.size());
    shard_of.push_back(smallest);
    users[smallest].push_back(u);
    if (grown.empty() || grown.back() != smallest) grown.push_back(smallest);
  }
  std::sort(grown.begin(), grown.end());
  grown.erase(std::unique(grown.begin(), grown.end()), grown.end());
  return grown;
}

void ShardPlan::RefreshCutPairs(const SvgicInstance& instance) {
  cut_pairs.clear();
  cut_pairs_of_user.assign(shard_of.size(), {});
  boundary.assign(shard_of.size(), 0);
  double cut_weight = 0.0;
  double total_weight = 0.0;
  for (size_t pi = 0; pi < instance.pairs().size(); ++pi) {
    const FriendPair& pair = instance.pairs()[pi];
    if (pair.weights.empty()) continue;
    double weight = 0.0;
    for (const ItemValue& iv : pair.weights) weight += iv.value;
    total_weight += weight;
    if (shard_of[pair.u] == shard_of[pair.v]) continue;
    const int index = static_cast<int>(pi);
    cut_pairs.push_back(index);
    cut_pairs_of_user[pair.u].push_back(index);
    cut_pairs_of_user[pair.v].push_back(index);
    boundary[pair.u] = 1;
    boundary[pair.v] = 1;
    cut_weight += weight;
  }
  stats.num_shards = num_shards();
  stats.min_size = 0;
  stats.max_size = 0;
  for (const auto& members : users) {
    const int size = static_cast<int>(members.size());
    if (stats.min_size == 0 || size < stats.min_size) stats.min_size = size;
    stats.max_size = std::max(stats.max_size, size);
  }
  const double ideal = num_shards() > 0
                           ? static_cast<double>(shard_of.size()) /
                                 num_shards()
                           : 0.0;
  stats.balance = ideal > 0.0 ? stats.max_size / ideal : 0.0;
  stats.cut_pairs = static_cast<int>(cut_pairs.size());
  stats.cut_weight_fraction =
      total_weight > 0.0 ? cut_weight / total_weight : 0.0;
}

namespace {

/// Users per shard aimed for when ShardPlanOptions::num_shards == 0.
constexpr int kTargetShardSize = 24;
/// kCommunity splits any community larger than this multiple of the ideal
/// shard size (n / num_shards) via BFS chunking.
constexpr double kMaxImbalance = 1.6;

/// Splits any community larger than `max_size` into BFS chunks of at most
/// `chunk_size` members, keeping the rest of the partition untouched.
void SplitOversized(const SocialGraph& graph, int max_size, int chunk_size,
                    uint64_t seed, Partition* p) {
  const auto groups = p->Groups();
  int next_label = p->num_communities;
  for (const std::vector<UserId>& members : groups) {
    if (static_cast<int>(members.size()) <= max_size) continue;
    std::vector<UserId> old_to_new;
    const SocialGraph sub = graph.InducedSubgraph(members, &old_to_new);
    Rng rng(seed ^ (0x9E3779B97F4A7C15ULL * (members.front() + 1)));
    const Partition chunks = BalancedPartition(sub, chunk_size, &rng);
    for (size_t local = 0; local < members.size(); ++local) {
      p->community[members[local]] = next_label + chunks.community[local];
    }
    next_label += chunks.num_communities;
  }
  Normalize(p);
}

}  // namespace

ShardPlan BuildShardPlan(const SvgicInstance& instance,
                         const ShardPlanOptions& options) {
  const SocialGraph& graph = instance.graph();
  const int n = graph.num_vertices();
  int target = options.num_shards > 0
                   ? options.num_shards
                   : (n + kTargetShardSize - 1) / kTargetShardSize;
  target = std::max(1, std::min(target, std::max(1, n)));
  const int ideal = std::max(1, (n + target - 1) / target);

  Partition p;
  if (target >= n) {
    Rng rng(options.seed);
    p = BalancedPartition(graph, ideal, &rng);
  } else {
    p = GreedyModularity(graph, target);
    const int max_size =
        std::max(ideal, static_cast<int>(ideal * kMaxImbalance));
    SplitOversized(graph, max_size, ideal, options.seed, &p);
    // An edgeless (or near-edgeless) graph leaves more singletons than
    // shards: fold the surplus round-robin into the first `target` labels.
    if (p.num_communities > target * 2) {
      for (int& label : p.community) label %= target;
      Normalize(&p);
    }
  }

  ShardPlan plan;
  plan.shard_of = p.community;
  plan.users.resize(p.num_communities);
  for (UserId u = 0; u < n; ++u) plan.users[plan.shard_of[u]].push_back(u);
  plan.RefreshCutPairs(instance);
  return plan;
}

}  // namespace savg
