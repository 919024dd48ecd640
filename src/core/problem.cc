#include "core/problem.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace savg {

namespace {

/// Binary search in a sorted ItemValue vector.
double LookupItem(const std::vector<ItemValue>& values, ItemId c) {
  auto it = std::lower_bound(
      values.begin(), values.end(), c,
      [](const ItemValue& iv, ItemId item) { return iv.item < item; });
  if (it != values.end() && it->item == c) return it->value;
  return 0.0;
}

/// Sorts by item and merges duplicates by summation.
void SortAndMerge(std::vector<ItemValue>* values) {
  std::sort(values->begin(), values->end(),
            [](const ItemValue& a, const ItemValue& b) {
              return a.item < b.item;
            });
  size_t out = 0;
  for (size_t i = 0; i < values->size();) {
    size_t j = i;
    float acc = 0.0f;
    while (j < values->size() && (*values)[j].item == (*values)[i].item) {
      acc += (*values)[j].value;
      ++j;
    }
    (*values)[out++] = {(*values)[i].item, acc};
    i = j;
  }
  values->resize(out);
}

}  // namespace

double FriendPair::WeightOf(ItemId c) const { return LookupItem(weights, c); }

SvgicInstance::SvgicInstance(SocialGraph graph, int num_items, int num_slots,
                             double lambda)
    : graph_(std::move(graph)),
      num_items_(num_items),
      num_slots_(num_slots),
      lambda_(lambda),
      preference_(static_cast<size_t>(graph_.num_vertices()) * num_items,
                  0.0f),
      tau_(graph_.num_edges()) {}

double SvgicInstance::TauOf(EdgeId e, ItemId c) const {
  return LookupItem(tau_[e], c);
}

void SvgicInstance::set_tau(EdgeId e, ItemId c, double value) {
  tau_[e].push_back({c, static_cast<float>(value)});
  finalized_ = false;
}

double SvgicInstance::Tau(UserId u, UserId v, ItemId c) const {
  const EdgeId e = graph_.FindEdge(u, v);
  return e >= 0 ? TauOf(e, c) : 0.0;
}

void SvgicInstance::ScaleAllTau(double scale) {
  scale = std::max(0.0, scale);
  for (auto& entries : tau_) {
    for (ItemValue& iv : entries) {
      iv.value = static_cast<float>(iv.value * scale);
    }
  }
  finalized_ = false;
}

void SvgicInstance::FinalizePairs() {
  for (auto& entries : tau_) SortAndMerge(&entries);
  pairs_.clear();
  pairs_of_user_.assign(num_users(), {});
  for (const Edge& e : graph_.edges()) {
    // Process each unordered pair once, from its canonical direction: the
    // direction with u < v, or the only direction present.
    const EdgeId reverse = graph_.FindEdge(e.v, e.u);
    if (reverse >= 0 && e.u > e.v) continue;
    FriendPair pair;
    pair.u = std::min(e.u, e.v);
    pair.v = std::max(e.u, e.v);
    const EdgeId forward = e.id;
    pair.uv = e.u == pair.u ? forward : reverse;
    pair.vu = e.u == pair.u ? reverse : forward;
    // Merge sparse weights of both directions.
    if (pair.uv >= 0) {
      pair.weights.insert(pair.weights.end(), tau_[pair.uv].begin(),
                          tau_[pair.uv].end());
    }
    if (pair.vu >= 0) {
      pair.weights.insert(pair.weights.end(), tau_[pair.vu].begin(),
                          tau_[pair.vu].end());
    }
    SortAndMerge(&pair.weights);
    // Drop zero weights to keep iteration tight.
    pair.weights.erase(
        std::remove_if(pair.weights.begin(), pair.weights.end(),
                       [](const ItemValue& iv) { return iv.value == 0.0f; }),
        pair.weights.end());
    const int idx = static_cast<int>(pairs_.size());
    pairs_.push_back(std::move(pair));
    pairs_of_user_[pairs_.back().u].push_back(idx);
    pairs_of_user_[pairs_.back().v].push_back(idx);
  }
  finalized_ = true;
  finalized_edge_count_ = graph_.num_edges();
}

void SvgicInstance::RestoreFinalizedPairs(std::vector<FriendPair> pairs,
                                          int finalized_edge_count) {
  pairs_ = std::move(pairs);
  pairs_of_user_.assign(num_users(), {});
  for (size_t pi = 0; pi < pairs_.size(); ++pi) {
    // Index rebuild in pair order matches how FinalizePairs /
    // RefinalizePairs append, so PairsOfUser iteration order is identical
    // to the captured session's.
    pairs_of_user_[pairs_[pi].u].push_back(static_cast<int>(pi));
    pairs_of_user_[pairs_[pi].v].push_back(static_cast<int>(pi));
  }
  finalized_ = true;
  finalized_edge_count_ = finalized_edge_count;
}

UserId SvgicInstance::AddUser() {
  const UserId id = graph_.AddVertex();
  preference_.resize(static_cast<size_t>(graph_.num_vertices()) * num_items_,
                     0.0f);
  if (static_cast<int>(pairs_of_user_.size()) < graph_.num_vertices()) {
    pairs_of_user_.resize(graph_.num_vertices());
  }
  return id;
}

Status SvgicInstance::AddFriendship(UserId u, UserId v) {
  SAVG_RETURN_NOT_OK(graph_.AddUndirectedEdge(u, v));
  tau_.resize(graph_.num_edges());
  return Status::OK();
}

void SvgicInstance::SetTauValue(EdgeId e, ItemId c, double value) {
  auto& entries = tau_[e];
  auto it = std::lower_bound(
      entries.begin(), entries.end(), c,
      [](const ItemValue& iv, ItemId item) { return iv.item < item; });
  if (it != entries.end() && it->item == c) {
    it->value = static_cast<float>(value);
  } else {
    entries.insert(it, {c, static_cast<float>(value)});
  }
}

void SvgicInstance::DeactivateUser(UserId u) {
  std::fill(preference_.begin() + static_cast<size_t>(u) * num_items_,
            preference_.begin() + static_cast<size_t>(u + 1) * num_items_,
            0.0f);
  for (EdgeId e : graph_.OutEdgeIds(u)) tau_[e].clear();
  for (UserId v : graph_.InNeighbors(u)) {
    const EdgeId e = graph_.FindEdge(v, u);
    if (e >= 0) tau_[e].clear();
  }
}

ItemId SvgicInstance::AddItem() {
  const int n = num_users();
  const int old_m = num_items_;
  std::vector<float> grown(static_cast<size_t>(n) * (old_m + 1), 0.0f);
  for (int u = 0; u < n; ++u) {
    std::copy(preference_.begin() + static_cast<size_t>(u) * old_m,
              preference_.begin() + static_cast<size_t>(u + 1) * old_m,
              grown.begin() + static_cast<size_t>(u) * (old_m + 1));
  }
  preference_ = std::move(grown);
  ++num_items_;
  if (!commodity_values_.empty()) commodity_values_.push_back(1.0f);
  return num_items_ - 1;
}

std::vector<UserId> SvgicInstance::RetireItem(ItemId c) {
  for (UserId u = 0; u < num_users(); ++u) {
    preference_[static_cast<size_t>(u) * num_items_ + c] = 0.0f;
  }
  std::vector<UserId> dirty;
  for (const Edge& e : graph_.edges()) {
    auto& entries = tau_[e.id];
    const size_t before = entries.size();
    entries.erase(std::remove_if(entries.begin(), entries.end(),
                                 [c](const ItemValue& iv) {
                                   return iv.item == c;
                                 }),
                  entries.end());
    if (entries.size() != before) {
      dirty.push_back(e.u);
      dirty.push_back(e.v);
    }
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  return dirty;
}

int SvgicInstance::FindPairIndex(UserId u, UserId v) const {
  const UserId lo = std::min(u, v);
  const UserId hi = std::max(u, v);
  if (lo < 0 || hi >= static_cast<int>(pairs_of_user_.size())) return -1;
  for (int pi : pairs_of_user_[lo]) {
    if (pairs_[pi].u == lo && pairs_[pi].v == hi) return pi;
  }
  return -1;
}

void SvgicInstance::RebuildPairWeights(FriendPair* pair) const {
  pair->weights.clear();
  if (pair->uv >= 0) {
    pair->weights.insert(pair->weights.end(), tau_[pair->uv].begin(),
                         tau_[pair->uv].end());
  }
  if (pair->vu >= 0) {
    pair->weights.insert(pair->weights.end(), tau_[pair->vu].begin(),
                         tau_[pair->vu].end());
  }
  SortAndMerge(&pair->weights);
  pair->weights.erase(
      std::remove_if(pair->weights.begin(), pair->weights.end(),
                     [](const ItemValue& iv) { return iv.value == 0.0f; }),
      pair->weights.end());
}

void SvgicInstance::RefinalizePairs(const std::vector<UserId>& dirty_users) {
  if (static_cast<int>(pairs_of_user_.size()) < num_users()) {
    pairs_of_user_.resize(num_users());
  }
  std::vector<char> touched(pairs_.size(), 0);
  // Absorb edges added since the last (re)finalize: attach each to its
  // existing pair (a reverse direction added later) or open a new pair.
  for (EdgeId id = finalized_edge_count_; id < graph_.num_edges(); ++id) {
    const Edge& e = graph_.edge(id);
    SortAndMerge(&tau_[id]);
    int pi = FindPairIndex(e.u, e.v);
    if (pi < 0) {
      FriendPair pair;
      pair.u = std::min(e.u, e.v);
      pair.v = std::max(e.u, e.v);
      pi = static_cast<int>(pairs_.size());
      pairs_.push_back(std::move(pair));
      pairs_of_user_[pairs_[pi].u].push_back(pi);
      pairs_of_user_[pairs_[pi].v].push_back(pi);
      touched.push_back(1);
    } else {
      touched[pi] = 1;
    }
    if (e.u == pairs_[pi].u) {
      pairs_[pi].uv = id;
    } else {
      pairs_[pi].vu = id;
    }
  }
  finalized_edge_count_ = graph_.num_edges();
  for (UserId u : dirty_users) {
    if (u < 0 || u >= static_cast<int>(pairs_of_user_.size())) continue;
    for (int pi : pairs_of_user_[u]) touched[pi] = 1;
  }
  for (size_t pi = 0; pi < pairs_.size(); ++pi) {
    if (!touched[pi]) continue;
    FriendPair& pair = pairs_[pi];
    if (pair.uv >= 0) SortAndMerge(&tau_[pair.uv]);
    if (pair.vu >= 0) SortAndMerge(&tau_[pair.vu]);
    RebuildPairWeights(&pair);
  }
  finalized_ = true;
}

Status SvgicInstance::Validate() const {
  if (num_items_ <= 0) return Status::InvalidArgument("num_items must be > 0");
  if (num_slots_ <= 0) return Status::InvalidArgument("num_slots must be > 0");
  if (num_slots_ > num_items_) {
    return Status::InvalidArgument(
        "num_slots > num_items: the no-duplication constraint is "
        "unsatisfiable");
  }
  if (!(lambda_ >= 0.0 && lambda_ <= 1.0)) {  // NaN included
    return Status::InvalidArgument("lambda must be in [0, 1]");
  }
  if (preference_.size() !=
      static_cast<size_t>(num_users()) * num_items_) {
    return Status::InvalidArgument("preference matrix has wrong size");
  }
  for (float v : preference_) {
    if (!(v >= 0.0f) || std::isinf(v)) {
      return Status::InvalidArgument(
          "preference utilities must be finite and >= 0");
    }
  }
  if (lambda_ > 0.0 && !ScalesFinitely(lambda_)) {
    return Status::InvalidArgument(
        "lambda too small: scaled preferences could sum past DBL_MAX");
  }
  for (const auto& entries : tau_) {
    for (const ItemValue& iv : entries) {
      if (iv.item < 0 || iv.item >= num_items_) {
        return Status::OutOfRange("tau entry references unknown item");
      }
      if (!(iv.value >= 0.0f) || std::isinf(iv.value)) {
        return Status::InvalidArgument(
            "social utilities must be finite and >= 0");
      }
    }
  }
  if (!commodity_values_.empty() &&
      static_cast<int>(commodity_values_.size()) != num_items_) {
    return Status::InvalidArgument("commodity_values size mismatch");
  }
  if (!slot_weights_.empty() &&
      static_cast<int>(slot_weights_.size()) != num_slots_) {
    return Status::InvalidArgument("slot_weights size mismatch");
  }
  if (!finalized_) {
    return Status::InvalidArgument(
        "FinalizePairs() must be called before use");
  }
  return Status::OK();
}

std::string SvgicInstance::DebugString() const {
  std::ostringstream os;
  os << "SvgicInstance(n=" << num_users() << ", m=" << num_items_
     << ", k=" << num_slots_ << ", lambda=" << lambda_
     << ", pairs=" << pairs_.size() << ")";
  return os.str();
}

Result<SvgicInstance> ExtractSubInstance(const SvgicInstance& instance,
                                         const std::vector<UserId>& users) {
  std::vector<UserId> old_to_new;
  SocialGraph sub_graph = instance.graph().InducedSubgraph(users, &old_to_new);
  SvgicInstance sub(std::move(sub_graph), instance.num_items(),
                    instance.num_slots(), instance.lambda());
  for (size_t i = 0; i < users.size(); ++i) {
    for (ItemId c = 0; c < instance.num_items(); ++c) {
      sub.set_p(static_cast<UserId>(i), c, instance.p(users[i], c));
    }
  }
  for (const Edge& e : instance.graph().edges()) {
    const UserId nu = old_to_new[e.u];
    const UserId nv = old_to_new[e.v];
    if (nu < 0 || nv < 0) continue;
    const EdgeId sub_e = sub.graph().FindEdge(nu, nv);
    for (const ItemValue& iv : instance.TauEntries(e.id)) {
      if (iv.value > 0.0f) sub.set_tau(sub_e, iv.item, iv.value);
    }
  }
  sub.set_commodity_values(instance.commodity_values());
  sub.set_slot_weights(instance.slot_weights());
  sub.FinalizePairs();
  SAVG_RETURN_NOT_OK(sub.Validate());
  return sub;
}

}  // namespace savg
