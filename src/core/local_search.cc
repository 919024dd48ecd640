#include "core/local_search.h"

#include <algorithm>
#include <vector>

#include "core/objective.h"

namespace savg {

namespace {

/// Minimum scaled-utility gain for a move to be taken.
constexpr double kMinGain = 1e-9;

class LocalSearcher {
 public:
  LocalSearcher(const SvgicInstance& instance, Configuration config,
                const LocalSearchOptions& options)
      : inst_(instance), config_(std::move(config)), opt_(options) {}

  Result<LocalSearchResult> Run() {
    SAVG_RETURN_NOT_OK(config_.CheckValid());
    BuildCandidatePools();
    if (opt_.size_cap != CsfState::kNoSizeCap) BuildGroupSizes();

    LocalSearchResult result;
    result.initial_value = Evaluate(inst_, config_).ScaledTotal();
    for (int sweep = 0; sweep < opt_.max_sweeps; ++sweep) {
      ++result.sweeps;
      int moves = 0;
      for (UserId u = 0; u < inst_.num_users(); ++u) {
        for (SlotId s = 0; s < inst_.num_slots(); ++s) {
          moves += TryReassign(u, s);
          for (SlotId t = s + 1; t < inst_.num_slots(); ++t) {
            moves += TrySwap(u, s, t);
          }
        }
      }
      result.moves_taken += moves;
      if (moves == 0) break;
    }
    result.final_value = Evaluate(inst_, config_).ScaledTotal();
    SAVG_RETURN_NOT_OK(config_.CheckValid());
    result.config = std::move(config_);
    return result;
  }

 private:
  double ScaledPref(UserId u, ItemId c) const {
    return inst_.lambda() > 0.0 ? inst_.ScaledP(u, c) : inst_.p(u, c);
  }

  /// Social weight user u realizes by viewing c at slot s (sum of pair
  /// weights to neighbors currently showing c at s).
  double SocialAt(UserId u, ItemId c, SlotId s) const {
    double acc = 0.0;
    for (int pi : inst_.PairsOfUser(u)) {
      const FriendPair& pair = inst_.pairs()[pi];
      const UserId v = pair.u == u ? pair.v : pair.u;
      if (config_.At(v, s) == c) acc += pair.WeightOf(c);
    }
    return acc;
  }

  void BuildCandidatePools() {
    pool_.assign(inst_.num_users(), {});
    for (UserId u = 0; u < inst_.num_users(); ++u) {
      for (ItemId c = 0; c < inst_.num_items(); ++c) {
        if (inst_.p(u, c) > 0.0) pool_[u].push_back(c);
      }
      // Items with social weight to any friend also matter.
      for (int pi : inst_.PairsOfUser(u)) {
        for (const ItemValue& iv : inst_.pairs()[pi].weights) {
          pool_[u].push_back(iv.item);
        }
      }
      std::sort(pool_[u].begin(), pool_[u].end());
      pool_[u].erase(std::unique(pool_[u].begin(), pool_[u].end()),
                     pool_[u].end());
    }
  }

  void BuildGroupSizes() {
    group_size_.assign(
        static_cast<size_t>(inst_.num_items()) * inst_.num_slots(), 0);
    for (UserId u = 0; u < inst_.num_users(); ++u) {
      for (SlotId s = 0; s < inst_.num_slots(); ++s) {
        const ItemId c = config_.At(u, s);
        if (c != kNoItem) ++GroupSize(c, s);
      }
    }
  }

  int& GroupSize(ItemId c, SlotId s) {
    return group_size_[static_cast<size_t>(c) * inst_.num_slots() + s];
  }

  bool CapAllows(ItemId c, SlotId s) {
    if (opt_.size_cap == CsfState::kNoSizeCap) return true;
    return GroupSize(c, s) < opt_.size_cap;
  }

  void Move(UserId u, SlotId s, ItemId to) {
    const ItemId from = config_.At(u, s);
    config_.Unset(u, s);
    Status st = config_.Set(u, s, to);
    (void)st;
    if (!group_size_.empty()) {
      --GroupSize(from, s);
      ++GroupSize(to, s);
    }
  }

  int TryReassign(UserId u, SlotId s) {
    const ItemId cur = config_.At(u, s);
    const double cur_value = ScaledPref(u, cur) + SocialAt(u, cur, s);
    ItemId best = kNoItem;
    double best_gain = kMinGain;
    for (ItemId cand : pool_[u]) {
      if (cand == cur || config_.Displays(u, cand)) continue;
      if (!CapAllows(cand, s)) continue;
      const double gain =
          ScaledPref(u, cand) + SocialAt(u, cand, s) - cur_value;
      if (gain > best_gain) {
        best_gain = gain;
        best = cand;
      }
    }
    if (best == kNoItem) return 0;
    Move(u, s, best);
    return 1;
  }

  int TrySwap(UserId u, SlotId s, SlotId t) {
    const ItemId cs = config_.At(u, s);
    const ItemId ct = config_.At(u, t);
    // Preference is slot-invariant; only the social alignment changes.
    const double before = SocialAt(u, cs, s) + SocialAt(u, ct, t);
    const double after = SocialAt(u, ct, s) + SocialAt(u, cs, t);
    if (after - before <= kMinGain) return 0;
    // Swapping keeps the multiset of items per slot-group shifted by this
    // user only; cap counts change by +-1 per (item, slot).
    if (!CapAllows(ct, s) || !CapAllows(cs, t)) return 0;
    config_.Unset(u, s);
    config_.Unset(u, t);
    Status st = config_.Set(u, s, ct);
    (void)st;
    st = config_.Set(u, t, cs);
    (void)st;
    if (!group_size_.empty()) {
      --GroupSize(cs, s);
      --GroupSize(ct, t);
      ++GroupSize(ct, s);
      ++GroupSize(cs, t);
    }
    return 1;
  }

  const SvgicInstance& inst_;
  Configuration config_;
  const LocalSearchOptions opt_;
  std::vector<std::vector<ItemId>> pool_;
  std::vector<int> group_size_;
};

}  // namespace

Result<LocalSearchResult> ImproveByLocalSearch(
    const SvgicInstance& instance, const Configuration& config,
    const LocalSearchOptions& options) {
  SAVG_RETURN_NOT_OK(instance.Validate());
  LocalSearcher searcher(instance, config, options);
  return searcher.Run();
}

}  // namespace savg
