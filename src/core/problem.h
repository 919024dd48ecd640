// The SVGIC problem instance (Section 3.1).
//
// An instance bundles the social network G = (V, E), the universal item set
// C (|C| = m), the number of display slots k, the preference/social weight
// lambda, the preference utilities p(u, c), and the social utilities
// tau(u, v, c) attached to directed edges.
//
// Storage notes:
//  * p is dense row-major (n x m) in float: large instances have
//    m = 10000 items and the paper's learned models emit dense scores.
//  * tau is sparse per directed edge: real utility models concentrate
//    social utility on a limited pool of mutually relevant items.
//  * FinalizePairs() merges the two directions of each friendship into
//    an undirected FriendPair with weights w_e^c = tau(u,v,c) + tau(v,u,c),
//    the quantity every algorithm and the LP relaxation consume (a pair's
//    co-display yields both directed utilities at once).

#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace savg {

using ItemId = int32_t;
using SlotId = int32_t;

/// Sparse (item, value) entry; vectors of these are kept sorted by item.
struct ItemValue {
  ItemId item = 0;
  float value = 0.0f;
};

/// An unordered pair of friends with merged social weights.
struct FriendPair {
  UserId u = -1;
  UserId v = -1;
  EdgeId uv = -1;  ///< edge id of u -> v (-1 if absent)
  EdgeId vu = -1;  ///< edge id of v -> u (-1 if absent)
  /// w_e^c = tau(u,v,c) + tau(v,u,c), sparse, sorted by item.
  std::vector<ItemValue> weights;

  /// Weight for one item (binary search), 0 if absent.
  double WeightOf(ItemId c) const;
};

/// A full SVGIC instance.
class SvgicInstance {
 public:
  SvgicInstance() = default;
  SvgicInstance(SocialGraph graph, int num_items, int num_slots,
                double lambda);

  int num_users() const { return graph_.num_vertices(); }
  int num_items() const { return num_items_; }
  int num_slots() const { return num_slots_; }
  double lambda() const { return lambda_; }
  void set_lambda(double lambda) { lambda_ = lambda; }
  void set_num_slots(int k) { num_slots_ = k; }
  const SocialGraph& graph() const { return graph_; }

  /// Preference utility p(u, c).
  double p(UserId u, ItemId c) const {
    return preference_[static_cast<size_t>(u) * num_items_ + c];
  }
  void set_p(UserId u, ItemId c, double value) {
    preference_[static_cast<size_t>(u) * num_items_ + c] =
        static_cast<float>(value);
  }

  /// Scaled preference p'(u, c) = (1 - lambda)/lambda * p(u, c)
  /// (Section 4.4; requires lambda > 0). With this scaling every algorithm
  /// can run the lambda = 1/2 analysis unchanged.
  double ScaledP(UserId u, ItemId c) const {
    return PreferenceScale(lambda_) * p(u, c);
  }
  /// The factor (1 - lambda)/lambda of ScaledP.
  static double PreferenceScale(double lambda) {
    return (1.0 - lambda) / lambda;
  }
  /// The largest preference scale Validate() accepts. Utilities are finite
  /// floats, below 2^128, so every term of an objective sum (a scaled
  /// preference or a social utility, each counted at most twice) is below
  /// 2^960, and a sum of fewer than 2^53 such terms stays below 2^1015
  /// with its rounding. No instance that fits in memory holds 2^52
  /// utilities, so the bound holds whatever utilities later arrive and
  /// however many users, items and friendships join.
  static constexpr double kMaxPreferenceScale = 0x1p832;
  /// True when lambda scales preferences within kMaxPreferenceScale: the
  /// smallest such lambda is 2^-832, about 3.5e-251.
  static bool ScalesFinitely(double lambda) {
    return PreferenceScale(lambda) <= kMaxPreferenceScale;
  }

  /// Social utility tau(u, v, c) for the directed edge id `e`.
  double TauOf(EdgeId e, ItemId c) const;
  /// Sets tau for a directed edge. Entries must be added before
  /// FinalizePairs(); unsorted inserts are permitted (sorted on finalize).
  void set_tau(EdgeId e, ItemId c, double value);
  /// Convenience: tau(u, v, c) via edge lookup; 0 when (u,v) not in E.
  double Tau(UserId u, UserId v, ItemId c) const;
  /// Raw sparse tau entries of a directed edge (sorted after finalize).
  const std::vector<ItemValue>& TauEntries(EdgeId e) const { return tau_[e]; }
  /// Multiplies every tau entry by `scale` (clamped to >= 0). Callers must
  /// re-run FinalizePairs() afterwards.
  void ScaleAllTau(double scale);

  /// Optional commodity values omega_c (extension A); empty = all 1.
  const std::vector<float>& commodity_values() const {
    return commodity_values_;
  }
  void set_commodity_values(std::vector<float> values) {
    commodity_values_ = std::move(values);
  }
  double CommodityOf(ItemId c) const {
    return commodity_values_.empty() ? 1.0 : commodity_values_[c];
  }

  /// Optional slot significances gamma_s (extension B); empty = all 1.
  const std::vector<float>& slot_weights() const { return slot_weights_; }
  void set_slot_weights(std::vector<float> weights) {
    slot_weights_ = std::move(weights);
  }
  double SlotWeightOf(SlotId s) const {
    return slot_weights_.empty() ? 1.0 : slot_weights_[s];
  }

  /// Merges directed tau entries into undirected FriendPairs. Must be
  /// called after all set_tau edits and before running algorithms.
  void FinalizePairs();

  // --- Online mutation API (src/online/) -----------------------------------
  //
  // These edits keep the instance usable between Resolve() calls of a live
  // session: ids stay dense and stable, and RefinalizePairs() updates only
  // the pairs incident to the touched users instead of rebuilding all of
  // pairs_ the way FinalizePairs() does.

  /// Appends a new user with zero preferences and no friendships; returns
  /// the new id. The instance stays finalized (an isolated user has no
  /// pairs).
  UserId AddUser();

  /// Adds the friendship {u, v} (both directed edges). New edges carry no
  /// tau until SetTauValue(); callers must RefinalizePairs() afterwards.
  Status AddFriendship(UserId u, UserId v);

  /// Sets tau(edge e, c) = value absolutely (unlike set_tau, which appends
  /// a to-be-merged entry). Maintains sorted entry order, so TauOf stays
  /// correct immediately; pair weights need RefinalizePairs().
  void SetTauValue(EdgeId e, ItemId c, double value);

  /// "User left": zeroes u's preference row and the tau of every edge
  /// incident to u. The vertex itself stays (dense ids remain valid); the
  /// user contributes nothing to the objective afterwards. Callers must
  /// RefinalizePairs() with u's neighbors marked dirty.
  void DeactivateUser(UserId u);

  /// Appends one item with zero preference/tau everywhere; returns its id.
  ItemId AddItem();

  /// "Item retired": zeroes p(*, c) and removes every tau entry for c.
  /// The item id stays valid (dense ids). Returns the users whose incident
  /// edges carried tau for c (the dirty set for RefinalizePairs()).
  std::vector<UserId> RetireItem(ItemId c);

  /// Incremental FinalizePairs(): recomputes the merged weights of only
  /// the pairs incident to `dirty_users` and absorbs edges added since the
  /// last (re)finalize, leaving every other pair untouched. Pair indices
  /// are stable: emptied pairs stay in place with no weights. Equivalent
  /// to FinalizePairs() when the dirty set covers every touched user.
  void RefinalizePairs(const std::vector<UserId>& dirty_users);

  const std::vector<FriendPair>& pairs() const { return pairs_; }
  /// Pair indices incident to user u.
  const std::vector<int>& PairsOfUser(UserId u) const {
    return pairs_of_user_[u];
  }

  /// Edges already represented in pairs_ (see RefinalizePairs). Exposed so
  /// the durability layer can serialize the exact finalize state.
  int finalized_edge_count() const { return finalized_edge_count_; }

  /// Restores an exact prior pair state (durability recovery). The pair
  /// ORDER of a live session evolves through RefinalizePairs() appends and
  /// can differ from what FinalizePairs() would build from scratch (an
  /// asymmetric edge whose reverse arrives later keeps its original pair
  /// slot), so recovery must restore the evolved order verbatim instead of
  /// re-finalizing. Rebuilds pairs_of_user_ and marks the instance
  /// finalized; `finalized_edge_count` must match the pairs' edge
  /// coverage.
  void RestoreFinalizedPairs(std::vector<FriendPair> pairs,
                             int finalized_edge_count);

  /// Structural sanity checks (sizes, ranges, non-negative utilities,
  /// lambda in [0,1], k <= m, pairs finalized).
  Status Validate() const;

  std::string DebugString() const;

 private:
  SocialGraph graph_;
  int num_items_ = 0;
  int num_slots_ = 0;
  double lambda_ = 0.5;
  std::vector<float> preference_;            // n x m
  std::vector<std::vector<ItemValue>> tau_;  // per directed edge, sparse
  std::vector<float> commodity_values_;      // optional, per item
  std::vector<float> slot_weights_;          // optional, per slot
  std::vector<FriendPair> pairs_;
  std::vector<std::vector<int>> pairs_of_user_;
  bool finalized_ = false;
  /// Edges already represented in pairs_ (prefix of edge ids); edges with
  /// id >= this are absorbed by the next RefinalizePairs().
  int finalized_edge_count_ = 0;

  /// Pair index of the unordered pair {u, v}, or -1.
  int FindPairIndex(UserId u, UserId v) const;
  /// Recomputes pair weights from the (sorted) tau of both directions.
  void RebuildPairWeights(FriendPair* pair) const;
};

/// Induced sub-instance on `users` (item set, k and lambda unchanged);
/// sub-instance user i is users[i]. Preference rows and the positive tau
/// entries of surviving directed edges are copied; pairs are finalized.
Result<SvgicInstance> ExtractSubInstance(const SvgicInstance& instance,
                                         const std::vector<UserId>& users);

}  // namespace savg
