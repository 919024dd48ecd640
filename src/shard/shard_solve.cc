#include "shard/shard_solve.h"

#include <algorithm>
#include <cmath>

#include "core/objective.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/random.h"

namespace savg {

namespace {

/// Duals are clamped away from {0, 1} so a boundary user's bonus (and
/// hence their shard-LP column for the cut item) never vanishes: the shard
/// LP keeps its shape across dual rounds and the cached basis stays a
/// perfect warm start.
constexpr double kThetaMin = 1e-4;
/// Initial scale of the Polyak dual step (halved every round that fails to
/// improve the dual bound).
constexpr double kDualStepScale = 0.5;
/// Inner subgradient iterations for warm (non-first) rounds of subgradient
/// shards; the warm point makes long ascents unnecessary.
constexpr int kWarmSubgradientIterations = 16;

/// Deterministic per-shard seed derivation (one splitmix64 step from the
/// seed advanced by `salt` increments): seeds depend only on the caller
/// seed and the shard index, never on worker identity or execution order.
uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t state = seed + 0x9E3779B97F4A7C15ULL * salt;
  return SplitMix64(&state) | 1;
}

}  // namespace

struct ShardCoordinator::Shard {
  SvgicInstance sub;
  /// local user id -> global user id (== plan.users[shard], ascending).
  std::vector<UserId> globals;
  /// (local, global) ids of this shard's boundary users.
  std::vector<std::pair<int, UserId>> boundary_locals;
  /// Local relaxation of the last solve (supporters built); the basis and
  /// fractional point double as warm starts for the next round.
  FractionalSolution frac;
  double lp_objective = 0.0;
  /// True (bonus-free) objective contribution of this shard's x rows:
  /// global scaled preferences plus intra-shard pair terms. Cached so the
  /// stitched primal is the cheap sum intra_value + cut terms instead of
  /// a full n x m scan per dual round.
  double intra_value = 0.0;
  bool warm = false;  ///< frac/basis usable as a warm start
  bool dirty = true;
};

namespace {

/// Shard intra contribution: sum of the parent's scaled preferences over
/// the shard's x rows plus the intra-shard pair min-terms. Uses the
/// parent's p (the sub-instance's rows carry dual bonuses).
double IntraObjective(const SvgicInstance& parent,
                      const std::vector<UserId>& globals,
                      const SvgicInstance& sub,
                      const std::vector<double>& x) {
  const int m = parent.num_items();
  double acc = 0.0;
  for (size_t local = 0; local < globals.size(); ++local) {
    const size_t base = local * static_cast<size_t>(m);
    for (ItemId c = 0; c < m; ++c) {
      if (x[base + c] > 0.0) {
        acc += parent.ScaledP(globals[local], c) * x[base + c];
      }
    }
  }
  for (const FriendPair& pair : sub.pairs()) {
    const size_t bu = static_cast<size_t>(pair.u) * m;
    const size_t bv = static_cast<size_t>(pair.v) * m;
    for (const ItemValue& iv : pair.weights) {
      acc += iv.value * std::min(x[bu + iv.item], x[bv + iv.item]);
    }
  }
  return acc;
}

}  // namespace

ShardCoordinator::ShardCoordinator(const SvgicInstance* instance,
                                   ShardSolveOptions options)
    : instance_(instance), options_(std::move(options)) {}

ShardCoordinator::~ShardCoordinator() = default;

Status ShardCoordinator::Build() {
  SAVG_RETURN_NOT_OK(instance_->Validate());
  if (instance_->lambda() <= 0.0 || instance_->lambda() >= 1.0) {
    return Status::InvalidArgument(
        "sharded solve requires lambda in (0, 1): the dual bonus enters a "
        "shard LP through the scaled preference, which vanishes at the "
        "endpoints (use the monolithic path there)");
  }
  plan_ = BuildShardPlan(*instance_, options_.plan);
  theta_.assign(instance_->pairs().size(), {});
  for (int pi : plan_.cut_pairs) {
    theta_[pi].assign(instance_->pairs()[pi].weights.size(), 0.5);
  }
  shards_.clear();
  shards_.reserve(plan_.num_shards());
  for (int i = 0; i < plan_.num_shards(); ++i) {
    shards_.push_back(std::make_unique<Shard>());
    SAVG_RETURN_NOT_OK(ExtractShard(i));
  }
  last_num_items_ = instance_->num_items();
  last_lambda_ = instance_->lambda();
  EnsureFracShape();
  built_ = true;
  return Status::OK();
}

Status ShardCoordinator::ExtractShard(int shard) {
  Shard& s = *shards_[shard];
  const std::vector<UserId>& members = plan_.users[shard];
  // Local ids follow `members` order, so the members list doubles as the
  // local -> global map.
  SAVG_ASSIGN_OR_RETURN(s.sub, ExtractSubInstance(*instance_, members));
  s.globals = members;
  s.boundary_locals.clear();
  for (size_t local = 0; local < members.size(); ++local) {
    if (plan_.boundary[members[local]]) {
      s.boundary_locals.emplace_back(static_cast<int>(local), members[local]);
    }
  }
  // The sub-instance was rebuilt from scratch: the cached basis/point may
  // no longer match its LP shape. The simplex silently cold-starts on an
  // incompatible basis; the fractional warm point is shape-checked in
  // SolveShardRelaxation.
  s.dirty = true;
  return Status::OK();
}

void ShardCoordinator::EnsureFracShape() {
  const int n = instance_->num_users();
  const int m = instance_->num_items();
  if (frac_.num_users != n || frac_.num_items != m ||
      frac_.num_slots != instance_->num_slots()) {
    frac_ = FractionalSolution();
    frac_.num_users = n;
    frac_.num_items = m;
    frac_.num_slots = instance_->num_slots();
    frac_.x.assign(static_cast<size_t>(n) * m, 0.0);
    // Re-stitch every shard with a still-valid cached solution: only the
    // dirty shards re-solve after a reshape (e.g. a user joined), and
    // losing the clean shards' rows here would zero their users out of
    // the stitched solution for good.
    for (size_t i = 0; i < shards_.size(); ++i) {
      const Shard& s = *shards_[i];
      if (s.warm && s.frac.num_items == m &&
          s.frac.x.size() == s.globals.size() * static_cast<size_t>(m)) {
        StitchShard(static_cast<int>(i));
      }
    }
  }
}

Status ShardCoordinator::Refresh(const std::vector<UserId>& dirty_users) {
  if (!built_) return Build();
  if (instance_->lambda() <= 0.0 || instance_->lambda() >= 1.0) {
    return Status::InvalidArgument("sharded solve requires lambda in (0, 1)");
  }
  const bool items_changed = instance_->num_items() != last_num_items_;
  const bool lambda_changed = instance_->lambda() != last_lambda_;
  const std::vector<int> grown =
      plan_.AbsorbNewUsers(instance_->num_users());
  plan_.RefreshCutPairs(*instance_);
  // Re-key duals by pair index; a pair whose weight-entry set changed
  // restarts its shares at the uninformative 1/2.
  theta_.resize(instance_->pairs().size());
  std::vector<char> is_cut(theta_.size(), 0);
  for (int pi : plan_.cut_pairs) {
    is_cut[pi] = 1;
    if (theta_[pi].size() != instance_->pairs()[pi].weights.size()) {
      theta_[pi].assign(instance_->pairs()[pi].weights.size(), 0.5);
    }
  }
  for (size_t pi = 0; pi < theta_.size(); ++pi) {
    if (!is_cut[pi]) theta_[pi].clear();
  }

  std::vector<char> dirty_shard(plan_.num_shards(), 0);
  if (items_changed || lambda_changed) {
    std::fill(dirty_shard.begin(), dirty_shard.end(), 1);
  }
  for (int shard : grown) dirty_shard[shard] = 1;
  for (UserId u : dirty_users) {
    if (u >= 0 && u < static_cast<int>(plan_.shard_of.size())) {
      dirty_shard[plan_.shard_of[u]] = 1;
    }
  }
  for (int i = 0; i < plan_.num_shards(); ++i) {
    if (dirty_shard[i]) SAVG_RETURN_NOT_OK(ExtractShard(i));
  }
  last_num_items_ = instance_->num_items();
  last_lambda_ = instance_->lambda();
  EnsureFracShape();
  return Status::OK();
}

void ShardCoordinator::MarkAllDirty() {
  for (auto& shard : shards_) shard->dirty = true;
}

void ShardCoordinator::ApplyDualBonus(int shard) {
  Shard& s = *shards_[shard];
  const int m = instance_->num_items();
  const double lambda = instance_->lambda();
  // ScaledP multiplies p by (1-lambda)/lambda, so a bonus of b on the
  // scaled objective is injected as b * lambda/(1-lambda) on p. Rewriting
  // the whole row from the parent also clears the previous round's bonus.
  const double inverse_scale = lambda / (1.0 - lambda);
  for (const auto& [local, global] : s.boundary_locals) {
    for (ItemId c = 0; c < m; ++c) {
      s.sub.set_p(local, c, instance_->p(global, c));
    }
    for (int pi : plan_.cut_pairs_of_user[global]) {
      const FriendPair& pair = instance_->pairs()[pi];
      const std::vector<double>& shares = theta_[pi];
      for (size_t wi = 0; wi < pair.weights.size(); ++wi) {
        const ItemValue& iv = pair.weights[wi];
        const double share = pair.u == global ? shares[wi] : 1.0 - shares[wi];
        const double bonus = share * iv.value * inverse_scale;
        s.sub.set_p(local, iv.item,
                    s.sub.p(local, iv.item) + bonus);
      }
    }
  }
}

Result<FractionalSolution> ShardCoordinator::SolveShardRelaxation(
    int shard, bool warm) {
  Shard& s = *shards_[shard];
  RelaxationOptions rel = options_.relaxation;
  rel.method = ChooseRelaxationMethod(s.sub, rel);
  const LpBasis* warm_basis = nullptr;
  if (warm) {
    if (rel.method == RelaxationMethod::kSimplex && !s.frac.lp_basis.Empty()) {
      warm_basis = &s.frac.lp_basis;
    } else if (rel.method == RelaxationMethod::kSubgradient &&
               s.frac.x.size() ==
                   static_cast<size_t>(s.sub.num_users()) *
                       s.sub.num_items()) {
      rel.subgradient.initial_x = &s.frac.x;
      rel.subgradient.max_iterations =
          std::min(rel.subgradient.max_iterations, kWarmSubgradientIterations);
    }
  }
  return SolveRelaxation(s.sub, rel, warm_basis);
}

void ShardCoordinator::StitchShard(int shard) {
  const Shard& s = *shards_[shard];
  const int m = instance_->num_items();
  for (size_t local = 0; local < s.globals.size(); ++local) {
    std::copy(s.frac.x.begin() + static_cast<size_t>(local) * m,
              s.frac.x.begin() + static_cast<size_t>(local + 1) * m,
              frac_.x.begin() + static_cast<size_t>(s.globals[local]) * m);
  }
}

Status ShardCoordinator::SolveFractional(ThreadPool* pool,
                                         ShardSolveStats* stats) {
  if (!built_) {
    return Status::InvalidArgument("ShardCoordinator::Build not called");
  }
  TraceScope solve_span("shard.solve");
  Timer lp_timer;
  std::vector<int> dirty;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i]->dirty) dirty.push_back(static_cast<int>(i));
  }
  std::vector<int64_t> pivots_by_shard(plan_.num_shards(), 0);
  std::vector<int> solves_by_shard(plan_.num_shards(), 0);
  stats->num_shards = plan_.num_shards();
  stats->dirty_shards = static_cast<int>(dirty.size());
  stats->cut_pairs = plan_.stats.cut_pairs;
  stats->cut_weight_fraction = plan_.stats.cut_weight_fraction;

  // Dual updates are restricted to cut entries between two dirty shards:
  // a clean endpoint's x is frozen, so moving its share could not tighten
  // the bound without re-solving the clean shard.
  std::vector<char> dirty_flag(plan_.num_shards(), 0);
  for (int i : dirty) dirty_flag[i] = 1;
  auto collect_active_cuts = [&] {
    std::vector<int> active;
    for (int pi : plan_.cut_pairs) {
      const FriendPair& pair = instance_->pairs()[pi];
      if (dirty_flag[plan_.shard_of[pair.u]] &&
          dirty_flag[plan_.shard_of[pair.v]]) {
        active.push_back(pi);
      }
    }
    return active;
  };
  std::vector<int> active_cuts = collect_active_cuts();

  const int m = instance_->num_items();
  int max_rounds = 0;
  if (!dirty.empty()) {
    max_rounds = plan_.cut_pairs.empty()
                     ? 1
                     : std::max(1, options_.max_dual_rounds);
  }
  // Stitched primal from the per-shard caches plus the cut terms — clean
  // shards are never re-scanned, so the per-round cost tracks the dirty
  // set, not the whole instance.
  auto compute_primal = [&] {
    double acc = 0.0;
    for (const auto& shard : shards_) acc += shard->intra_value;
    for (int pi : plan_.cut_pairs) {
      const FriendPair& pair = instance_->pairs()[pi];
      const size_t bu = static_cast<size_t>(pair.u) * m;
      const size_t bv = static_cast<size_t>(pair.v) * m;
      for (const ItemValue& iv : pair.weights) {
        acc += iv.value *
               std::min(frac_.x[bu + iv.item], frac_.x[bv + iv.item]);
      }
    }
    return acc;
  };
  bool widened = false;
  // Polyak-step state: running primal bound, best dual bound seen, and the
  // adaptively halved scale.
  double best_primal = -kLpInfinity;
  double best_dual = kLpInfinity;
  double polyak_scale = kDualStepScale;
  std::vector<Result<FractionalSolution>> slots(
      plan_.num_shards(),
      Result<FractionalSolution>(Status::Unknown("shard not solved")));
  for (int round = 0; round < max_rounds; ++round) {
    for (int i : dirty) ApplyDualBonus(i);
    for (int i : dirty) {
      pool->Submit([this, i, &slots] {
        slots[i] = SolveShardRelaxation(i, shards_[i]->warm);
      });
    }
    pool->Wait();
    for (int i : dirty) {
      if (!slots[i].ok()) return slots[i].status();
      Shard& s = *shards_[i];
      stats->lp_pivots += slots[i]->simplex_iterations;
      pivots_by_shard[i] += slots[i]->simplex_iterations;
      solves_by_shard[i] += 1;
      s.frac = std::move(slots[i]).value();
      s.lp_objective = s.frac.lp_objective;
      s.intra_value = IntraObjective(*instance_, s.globals, s.sub, s.frac.x);
      s.warm = true;
      StitchShard(i);
    }
    double dual_bound = 0.0;
    for (const auto& shard : shards_) dual_bound += shard->lp_objective;
    const double primal = compute_primal();
    stats->dual_bound = dual_bound;
    stats->primal_objective = primal;
    stats->gap = std::max(
        0.0, (dual_bound - primal) / std::max(1.0, std::abs(dual_bound)));
    stats->dual_rounds = round + 1;
    if (stats->gap <= options_.gap_tolerance || round + 1 >= max_rounds) {
      break;
    }
    if (active_cuts.empty() || (!widened && stats->gap >
                                    options_.gap_tolerance &&
                                2 * (round + 1) >= max_rounds)) {
      // Adaptive widening: the gap is stuck and some of it sits on cut
      // pairs whose clean endpoint we froze. Promote those clean shards —
      // they are extracted and warm, so their re-solves cost a few
      // pivots — and let their duals move.
      widened = true;
      int promoted = 0;
      for (int pi : plan_.cut_pairs) {
        const FriendPair& pair = instance_->pairs()[pi];
        const int su = plan_.shard_of[pair.u];
        const int sv = plan_.shard_of[pair.v];
        if (dirty_flag[su] == dirty_flag[sv]) continue;
        const int clean = dirty_flag[su] ? sv : su;
        if (!dirty_flag[clean]) {
          dirty_flag[clean] = 1;
          dirty.push_back(clean);
          ++promoted;
        }
      }
      if (promoted == 0 && active_cuts.empty()) break;
      std::sort(dirty.begin(), dirty.end());
      stats->widened_shards += promoted;
      active_cuts = collect_active_cuts();
      if (active_cuts.empty()) break;
    }
    // Polyak step toward the running primal bound: the remaining gap
    // D - P_best over the squared subgradient norm sizes the move by how
    // far the duals still are from closing it, instead of a blind
    // 1/sqrt(round) decay. Because part of that gap can be intrinsic (the
    // Lagrangian bound does not always meet the stitched primal), the
    // scale is adapted Held-Karp style: every round that fails to improve
    // the dual bound halves it, so an unreachable target decays the steps
    // geometrically instead of oscillating forever.
    best_primal = std::max(best_primal, primal);
    if (dual_bound < best_dual - 1e-9 * std::max(1.0, std::abs(best_dual))) {
      best_dual = dual_bound;
    } else {
      polyak_scale *= 0.5;
    }
    double gnorm2 = 0.0;
    for (int pi : active_cuts) {
      const FriendPair& pair = instance_->pairs()[pi];
      const size_t bu = static_cast<size_t>(pair.u) * m;
      const size_t bv = static_cast<size_t>(pair.v) * m;
      for (const ItemValue& iv : pair.weights) {
        const double g = frac_.x[bu + iv.item] - frac_.x[bv + iv.item];
        gnorm2 += g * g;
      }
    }
    if (gnorm2 < 1e-12) break;  // zero subgradient: duals cannot move
    const double step =
        polyak_scale * std::max(0.0, dual_bound - best_primal) / gnorm2;
    if (step <= 0.0) break;  // bound already met: further rounds are no-ops
    for (int pi : active_cuts) {
      const FriendPair& pair = instance_->pairs()[pi];
      const size_t bu = static_cast<size_t>(pair.u) * m;
      const size_t bv = static_cast<size_t>(pair.v) * m;
      std::vector<double>& shares = theta_[pi];
      for (size_t wi = 0; wi < pair.weights.size(); ++wi) {
        const ItemId c = pair.weights[wi].item;
        shares[wi] =
            std::clamp(shares[wi] - step * (frac_.x[bu + c] - frac_.x[bv + c]),
                       kThetaMin, 1.0 - kThetaMin);
      }
    }
  }
  last_resolved_shards_ = dirty;
  if (max_rounds == 0) {
    // Nothing dirty: refresh the telemetry from the cached state.
    double dual_bound = 0.0;
    for (const auto& shard : shards_) dual_bound += shard->lp_objective;
    stats->dual_bound = dual_bound;
    stats->primal_objective = compute_primal();
    stats->gap = std::max(0.0, (dual_bound - stats->primal_objective) /
                                   std::max(1.0, std::abs(dual_bound)));
  }
  frac_.lp_objective = stats->primal_objective;
  frac_.exact = false;
  frac_.simplex_iterations = static_cast<int>(stats->lp_pivots);
  frac_.BuildSupporters(options_.relaxation.prune_tolerance);
  for (auto& shard : shards_) shard->dirty = false;
  stats->lp_seconds += lp_timer.ElapsedSeconds();
  // Per-shard detail in shard index order: recorded here, after the
  // parallel region, so traces are identical for any worker count.
  stats->shard_details.clear();
  for (int i = 0; i < plan_.num_shards(); ++i) {
    if (solves_by_shard[i] == 0) continue;
    stats->shard_details.push_back({i, solves_by_shard[i],
                                    pivots_by_shard[i]});
  }
  if (solve_span.active()) {
    solve_span.Counter("dirty_shards", stats->dirty_shards);
    solve_span.Counter("dual_rounds", stats->dual_rounds);
    solve_span.Counter("widened_shards", stats->widened_shards);
    solve_span.Counter("pivots", stats->lp_pivots);
    // Bridged children show each shard's share of the (parallel) solve
    // wall, apportioned by pivots — a time split, not true intervals.
    const double total_pivots =
        std::max<double>(1.0, static_cast<double>(stats->lp_pivots));
    TraceContext* trace = CurrentTrace();
    for (const ShardSolveStats::ShardDetail& detail :
         stats->shard_details) {
      const int child = solve_span.BridgeChild(
          "shard", stats->lp_seconds *
                       static_cast<double>(detail.pivots) / total_pivots);
      trace->AddCounter(child, "shard", detail.shard);
      trace->AddCounter(child, "solves", detail.solves);
      trace->AddCounter(child, "pivots", detail.pivots);
    }
  }
  return Status::OK();
}

Result<Configuration> ShardCoordinator::Round(uint64_t rounding_seed,
                                              ShardSolveStats* stats) {
  if (!built_) {
    return Status::InvalidArgument("ShardCoordinator::Build not called");
  }
  TraceScope round_span("csf.round");
  // One global CSF pass over the stitched relaxation aligns co-display
  // slots across shards exactly like monolithic AVG, and decision dilution
  // keeps the single pass cheap.
  CsfState state(*instance_, frac_, options_.rounding.size_cap);
  AvgOptions opt = options_.rounding;
  opt.seed = MixSeed(rounding_seed, 0x6106a1ULL);
  auto rounded = RunCsfSampling(&state, opt);
  if (!rounded.ok()) return rounded.status();
  stats->csf_iterations += rounded->csf_iterations;
  round_span.Counter("rerounded_units",
                     static_cast<int64_t>(instance_->num_users()) *
                         instance_->num_slots());
  return std::move(rounded->config);
}

Result<ShardSolveResult> SolveSharded(const SvgicInstance& instance,
                                      const ShardSolveOptions& options) {
  ShardCoordinator coordinator(&instance, options);
  SAVG_RETURN_NOT_OK(coordinator.Build());
  ShardSolveResult result;
  ThreadPool pool(options.num_workers);
  SAVG_RETURN_NOT_OK(coordinator.SolveFractional(&pool, &result.stats));
  // Best-of-k rounding (Corollary 4.1), scored by the true scaled total.
  double best = 0.0;
  for (int repeat = 0; repeat < std::max(1, options.rounding_repeats);
       ++repeat) {
    SAVG_ASSIGN_OR_RETURN(
        Configuration config,
        coordinator.Round(MixSeed(options.seed, 0x10adULL + repeat),
                          &result.stats));
    const double total = Evaluate(instance, config).ScaledTotal();
    if (repeat == 0 || total > best) {
      best = total;
      result.config = std::move(config);
    }
  }
  result.frac = coordinator.frac();
  return result;
}

}  // namespace savg
