// Community-partitioned shard plans for the sharded solve subsystem.
//
// A ShardPlan splits an SvgicInstance's user set into shards along the
// social graph's community structure: most friendship terms are
// intra-community, so per-shard compact LPs capture most of the objective
// and only the cut pairs (friend pairs whose endpoints live in different
// shards) need cross-shard coordination (shard/shard_solve.h dualizes
// them). The plan records everything the coordinator needs — membership,
// the cut-pair list, which users sit on a shard boundary — plus balance
// and cut statistics for telemetry.
//
// Plans are deterministic for a fixed seed: shards come from the
// deterministic greedy modularity merge, with oversized communities split
// by seeded BFS chunking (the whole graph is chunked that way when the
// shard count reaches the user count), and all tie-breaks are index-based.

#pragma once

#include <string>
#include <vector>

#include "core/problem.h"
#include "graph/graph.h"

namespace savg {

struct ShardPlanOptions {
  /// Explicit shard count; 0 aims for 24 users per shard.
  int num_shards = 0;
  uint64_t seed = 1;
};

/// Balance + cut statistics of a plan (telemetry and bench tables).
struct ShardStats {
  int num_shards = 0;
  int min_size = 0;
  int max_size = 0;
  /// max_size / (n / num_shards); 1.0 is perfectly balanced.
  double balance = 0.0;
  int cut_pairs = 0;
  /// Total merged pair weight on cut pairs / total pair weight. The
  /// fraction of social mass the dual coordination must recover.
  double cut_weight_fraction = 0.0;

  std::string DebugString() const;
};

/// A partition of the user set into shards plus the cross-shard structure.
struct ShardPlan {
  /// shard index per user.
  std::vector<int> shard_of;
  /// Members of each shard, ascending user id.
  std::vector<std::vector<UserId>> users;
  /// Indices into instance.pairs() whose endpoints are in different shards
  /// (weighted pairs only — unweighted cut edges need no coordination).
  std::vector<int> cut_pairs;
  /// Cut-pair indices incident to each user (empty for interior users).
  std::vector<std::vector<int>> cut_pairs_of_user;
  /// True for users incident to at least one cut pair.
  std::vector<char> boundary;
  ShardStats stats;

  int num_shards() const { return static_cast<int>(users.size()); }

  /// Assigns users [shard_of.size(), num_users) — users that joined after
  /// the plan was built — to the currently smallest shard (ties to the
  /// lowest index). New users arrive without friendships, so any shard is
  /// community-consistent. Returns the shards that grew.
  std::vector<int> AbsorbNewUsers(int num_users);

  /// Recomputes cut_pairs / cut_pairs_of_user / boundary / stats against
  /// the (possibly mutated) instance. Pair indices are stable across
  /// RefinalizePairs, so callers can re-key dual state by pair index.
  void RefreshCutPairs(const SvgicInstance& instance);
};

/// Builds a plan for a finalized instance. Deterministic for fixed
/// options (including the seed).
ShardPlan BuildShardPlan(const SvgicInstance& instance,
                         const ShardPlanOptions& options);

}  // namespace savg
