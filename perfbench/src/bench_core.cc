#include "bench_core.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

using savg::DatasetKind;
using savg::Result;
using savg::Status;

namespace {

// Percentile ladder the tail rule picks from.
constexpr double kTailLadder[] = {50.0, 75.0, 90.0, 95.0, 99.0, 99.9};

// Nearest rank (1-based) of percentile p over n samples.
int64_t NearestRank(size_t n, double p) {
  const auto rank = static_cast<int64_t>(std::ceil(p / 100.0 * n - 1e-9));
  return std::max<int64_t>(1, std::min<int64_t>(rank, n));
}

}  // namespace

double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[NearestRank(sorted.size(), p) - 1];
}

int64_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  return static_cast<int64_t>(n) - NearestRank(n, p);
}

double HighestTailPercentile(size_t n, int64_t min_beyond) {
  double best = 0.0;
  for (double p : kTailLadder) {
    if (SamplesBeyond(n, p) >= min_beyond) best = p;
  }
  return best;
}

TimingSummary Summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  TimingSummary summary;
  summary.count = samples.size();
  summary.median = PercentileSorted(samples, 50.0);
  summary.tail_percentile = HighestTailPercentile(samples.size());
  if (summary.tail_percentile > 0.0) {
    summary.tail = PercentileSorted(samples, summary.tail_percentile);
  }
  return summary;
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return PercentileSorted(samples, 50.0);
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kServeBurst:
      return "serve-burst";
    case Workload::kServeChurn:
      return "serve-churn";
  }
  return "?";
}

Result<Workload> ParseWorkload(const std::string& name) {
  for (Workload w : {Workload::kServeBurst, Workload::kServeChurn}) {
    if (name == WorkloadName(w)) return w;
  }
  return Status::InvalidArgument("unknown workload '" + name +
                                 "' (serve-burst | serve-churn)");
}

std::string SpecName(const InstanceSpec& spec) {
  return std::string(savg::DatasetKindName(spec.kind)) + " " +
         std::to_string(spec.users) + "x" + std::to_string(spec.items) + "x" +
         std::to_string(spec.slots) + " seed " + std::to_string(spec.seed);
}

std::vector<InstanceSpec> ServeSessionSpecs() {
  return {{DatasetKind::kTimik, 20, 40, 3, 1},
          {DatasetKind::kTimik, 20, 40, 3, 3}};
}

std::vector<InstanceSpec> PlanProbeSpecs() {
  return {{DatasetKind::kTimik, 20, 40, 3, 1},
          {DatasetKind::kYelp, 20, 200, 5, 2},
          {DatasetKind::kYelp, 40, 2000, 10, 1}};
}

Result<savg::SvgicInstance> GenerateInstance(const InstanceSpec& spec) {
  savg::DatasetParams params;
  params.kind = spec.kind;
  params.num_users = spec.users;
  params.num_items = spec.items;
  params.num_slots = spec.slots;
  params.seed = spec.seed;
  return savg::GenerateDataset(params);
}

uint64_t SessionSeed(uint64_t seed, int session) {
  // SplitMix64 finalizer over (seed, session): distinct, well-mixed seeds.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(session) +
               0xD1B54A32D192ED03ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

const std::vector<ScheduledEvent>& ChurnSchedule() {
  static const std::vector<ScheduledEvent> schedule = [] {
    using savg::CommandType;
    std::vector<ScheduledEvent> events;
    for (int visit = 0; visit < 7; ++visit) {
      const int r = 7 * visit;
      events.push_back({r, 1, CommandType::kJoin});
      events.push_back({r + 1, 1, CommandType::kFriend});
      events.push_back({r + 2, 1, CommandType::kFriend});
      events.push_back({r + 3, 1, CommandType::kLeave});
    }
    for (int r : {5, 22, 39}) {
      events.push_back({r, 2, CommandType::kAddItem});
      events.push_back({r + 8, 2, CommandType::kRetireItem});
    }
    for (int r : {11, 24, 36, 49}) {
      events.push_back({r, 3, CommandType::kLambda});
    }
    std::sort(events.begin(), events.end(),
              [](const ScheduledEvent& a, const ScheduledEvent& b) {
                return a.round != b.round ? a.round < b.round
                                          : a.slot < b.slot;
              });
    return events;
  }();
  return schedule;
}

CommandStream::CommandStream(Workload workload, uint64_t seed,
                             const savg::SvgicInstance& initial)
    : workload_(workload),
      rng_(seed),
      num_user_ids_(initial.num_users()),
      num_item_ids_(initial.num_items()),
      core_users_(initial.num_users()),
      core_items_(initial.num_items()),
      lambda_(initial.lambda()) {
  for (UserId u = 0; u < core_users_; ++u) {
    for (UserId v : initial.graph().OutNeighbors(u)) {
      if (u < v) core_edges_.emplace_back(u, v);
    }
  }
  p_.resize(static_cast<size_t>(core_users_) * core_items_);
  for (UserId u = 0; u < core_users_; ++u) {
    for (ItemId c = 0; c < core_items_; ++c) {
      p_[static_cast<size_t>(u) * core_items_ + c] = initial.p(u, c);
    }
  }
  tau_.resize(core_edges_.size() * core_items_);
  for (size_t e = 0; e < core_edges_.size(); ++e) {
    const savg::EdgeId edge =
        initial.graph().FindEdge(core_edges_[e].first, core_edges_[e].second);
    for (ItemId c = 0; c < core_items_; ++c) {
      tau_[e * core_items_ + c] = initial.TauOf(edge, c);
    }
  }
}

double CommandStream::Nudge(double initial) {
  return initial * rng_.Uniform(1.0 - kNudge, 1.0 + kNudge);
}

SessionCommand CommandStream::Pref() {
  const auto u = static_cast<UserId>(rng_.UniformInt(core_users_));
  const auto c = static_cast<ItemId>(rng_.UniformInt(core_items_));
  return savg::MakePref(
      u, c, Nudge(p_[static_cast<size_t>(u) * core_items_ + c]));
}

SessionCommand CommandStream::PrefOrTau() {
  // EventStreamParams weights: pref 0.55, tau 0.25.
  if (rng_.Uniform() * 80.0 < 55.0 || core_edges_.empty()) return Pref();
  const size_t e = rng_.UniformInt(core_edges_.size());
  const auto c = static_cast<ItemId>(rng_.UniformInt(core_items_));
  return savg::MakeTau(core_edges_[e].first, core_edges_[e].second, c,
                       Nudge(tau_[e * core_items_ + c]));
}

SessionCommand CommandStream::Scheduled(savg::CommandType type,
                                        int64_t* expected_id) {
  switch (type) {
    case savg::CommandType::kJoin:
      guest_ = num_user_ids_;
      *expected_id = num_user_ids_++;
      return savg::MakeJoin();
    case savg::CommandType::kFriend: {
      const auto v = static_cast<UserId>(rng_.UniformInt(core_users_));
      return savg::MakeFriend(guest_, v);
    }
    case savg::CommandType::kLeave: {
      const UserId u = guest_;
      guest_ = -1;
      return savg::MakeLeave(u);
    }
    case savg::CommandType::kAddItem:
      promo_ = num_item_ids_;
      *expected_id = num_item_ids_++;
      return savg::MakeAddItem();
    case savg::CommandType::kRetireItem: {
      const ItemId c = promo_;
      promo_ = -1;
      return savg::MakeRetireItem(c);
    }
    default:  // kLambda, kept in EventStreamParams' range [0.2, 0.8]
      return savg::MakeLambda(std::clamp(Nudge(lambda_), 0.2, 0.8));
  }
}

void CommandStream::NextRound(std::vector<SessionCommand>* out,
                              std::vector<int64_t>* expected_ids) {
  if (workload_ == Workload::kServeBurst) {
    ++rounds_;
    for (int i = 0; i < 8; ++i) {
      out->push_back(Pref());
      expected_ids->push_back(-1);
    }
    for (int i = 0; i < 8; ++i) {
      out->push_back(savg::MakeResolve());
      expected_ids->push_back(-1);
    }
    return;
  }
  const int round = static_cast<int>(rounds_ % kChurnPeriodRounds);
  ++rounds_;
  const std::vector<ScheduledEvent>& schedule = ChurnSchedule();
  for (int slot = 0; slot < 4; ++slot) {
    int64_t expected = -1;
    const auto event =
        std::find_if(schedule.begin(), schedule.end(),
                     [&](const ScheduledEvent& e) {
                       return e.round == round && e.slot == slot;
                     });
    out->push_back(event == schedule.end() ? PrefOrTau()
                                           : Scheduled(event->type, &expected));
    expected_ids->push_back(expected);
  }
  out->push_back(savg::MakeResolve());
  expected_ids->push_back(-1);
}

}  // namespace perfbench
