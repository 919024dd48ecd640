#include "core/lp_formulation.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace savg {

int CompactLpRowCount(const SvgicInstance& instance) {
  int rows = instance.num_users();
  for (const FriendPair& pair : instance.pairs()) {
    rows += 2 * static_cast<int>(pair.weights.size());
  }
  return rows;
}

namespace {

Status CheckCompactLpInstance(const SvgicInstance& instance) {
  SAVG_RETURN_NOT_OK(instance.Validate());
  if (instance.lambda() <= 0.0) {
    return Status::InvalidArgument(
        "compact LP requires lambda > 0 (lambda = 0 reduces to top-k)");
  }
  return Status::OK();
}

/// Numbers the compact LP's columns into *map: per user, x_u^c for each
/// item that matters for u (nonzero preference or in an incident pair's
/// social weights) in item order, then u's filler, which folds every other
/// item into one zero-objective variable without changing the optimum;
/// then the s column of every co-display entry in pair order. Returns the
/// column count.
int LayOutCompactLp(const SvgicInstance& instance, CompactLpMap* map) {
  const int n = instance.num_users();
  const int m = instance.num_items();
  map->x.assign(static_cast<size_t>(n) * m, -1);
  map->filler.assign(n, -1);
  map->s.assign(instance.pairs().size(), {});
  int num_vars = 0;
  std::vector<char> useful(m);
  for (UserId u = 0; u < n; ++u) {
    for (ItemId c = 0; c < m; ++c) useful[c] = instance.p(u, c) > 0.0;
    for (int pi : instance.PairsOfUser(u)) {
      for (const ItemValue& iv : instance.pairs()[pi].weights) {
        useful[iv.item] = 1;
      }
    }
    bool useless = false;
    for (ItemId c = 0; c < m; ++c) {
      if (useful[c]) {
        map->x[static_cast<size_t>(u) * m + c] = num_vars++;
      } else {
        useless = true;
      }
    }
    if (useless) map->filler[u] = num_vars++;
  }
  for (size_t pi = 0; pi < instance.pairs().size(); ++pi) {
    const size_t entries = instance.pairs()[pi].weights.size();
    map->s[pi].resize(entries);
    for (size_t wi = 0; wi < entries; ++wi) map->s[pi][wi] = num_vars++;
  }
  return num_vars;
}

/// The objective coefficient and upper bound of every column of the
/// layout `map` (`num_vars` columns). x_u^c costs p'(u, c) plus the tau of
/// every entry that puts it on x_u^c, added in pair order; s costs -tau of
/// its entry (tau * min(x_u, x_v) = tau * x_v - tau * s with s >= x_v -
/// x_u, and tau > 0, since RebuildPairWeights drops zeros, drives s down
/// to max(0, x_v - x_u)); the filler costs 0 and holds the mass of the
/// items it folds.
void CompactLpValues(const SvgicInstance& instance, const CompactLpMap& map,
                     int num_vars, std::vector<double>* objective,
                     std::vector<double>* upper) {
  const int n = instance.num_users();
  const int m = instance.num_items();
  objective->assign(num_vars, 0.0);
  upper->assign(num_vars, 1.0);
  for (UserId u = 0; u < n; ++u) {
    int useless = 0;
    for (ItemId c = 0; c < m; ++c) {
      const int var = map.XVar(u, c, m);
      if (var < 0) {
        ++useless;
      } else {
        (*objective)[var] = instance.ScaledP(u, c);
      }
    }
    if (map.filler[u] >= 0) {
      (*upper)[map.filler[u]] = static_cast<double>(useless);
    }
  }
  for (size_t pi = 0; pi < instance.pairs().size(); ++pi) {
    const FriendPair& pair = instance.pairs()[pi];
    for (size_t wi = 0; wi < pair.weights.size(); ++wi) {
      const ItemValue& iv = pair.weights[wi];
      (*objective)[map.XVar(pair.v, iv.item, m)] += iv.value;
      (*objective)[map.s[pi][wi]] = -iv.value;
    }
  }
}

// Key packing: tag(2) | u(21) | v(21) | c(20). Column and row keys are
// separate spaces (ProjectCompactBasis never compares across them), so
// tags only need to keep the kinds disjoint within each space: cols use
// tag 0 (x), 1 (filler), 2 (s); rows use tag 0 (mass) and 2 (the entry
// row). u < v for pair entities (FriendPair canonical order).
constexpr uint64_t PackKey(uint64_t tag, uint64_t u, uint64_t v, uint64_t c) {
  return (tag << 62) | (u << 41) | (v << 20) | c;
}

CompactLpKeys KeysOf(const SvgicInstance& instance, const CompactLpMap& map,
                     int num_vars) {
  const int n = instance.num_users();
  const int m = instance.num_items();
  size_t entries = 0;
  for (const std::vector<int>& s : map.s) entries += s.size();
  CompactLpKeys keys;
  keys.cols.assign(num_vars, 0);
  keys.rows.reserve(n + entries);

  for (UserId u = 0; u < n; ++u) {
    for (ItemId c = 0; c < m; ++c) {
      const int var = map.XVar(u, c, m);
      if (var >= 0) keys.cols[var] = PackKey(0, u, 0, c);
    }
    if (map.filler[u] >= 0) keys.cols[map.filler[u]] = PackKey(1, u, 0, 0);
  }
  // Row order mirrors BuildCompactLp: per-user mass rows first...
  for (UserId u = 0; u < n; ++u) keys.rows.push_back(PackKey(0, u, 0, 1));
  // ...then per (pair, weight entry): the s column and its row.
  for (size_t pi = 0; pi < instance.pairs().size(); ++pi) {
    const FriendPair& pair = instance.pairs()[pi];
    for (size_t wi = 0; wi < pair.weights.size(); ++wi) {
      const uint64_t key = PackKey(2, pair.u, pair.v, pair.weights[wi].item);
      keys.cols[map.s[pi][wi]] = key;
      keys.rows.push_back(key);
    }
  }
  return keys;
}

/// The compact LP of the layout `map` (`num_vars` columns).
LpModel CompactLpModel(const SvgicInstance& instance, const CompactLpMap& map,
                       int num_vars) {
  const int n = instance.num_users();
  const int m = instance.num_items();
  const double k = instance.num_slots();
  std::vector<double> objective, upper;
  CompactLpValues(instance, map, num_vars, &objective, &upper);
  LpModel lp;
  lp.SetMaximize(true);
  for (int var = 0; var < num_vars; ++var) {
    lp.AddVariable(0.0, upper[var], objective[var]);
  }
  // Per user: the x columns and the filler hold exactly k slots of mass.
  for (UserId u = 0; u < n; ++u) {
    std::vector<LpTerm> mass_row;
    for (ItemId c = 0; c < m; ++c) {
      const int var = map.XVar(u, c, m);
      if (var >= 0) mass_row.push_back({var, 1.0});
    }
    if (map.filler[u] >= 0) mass_row.push_back({map.filler[u], 1.0});
    lp.AddRow(RowType::kEqual, k, std::move(mass_row));
  }
  // Per co-display entry (c, tau) of a pair u < v: x_v - x_u - s <= 0.
  for (size_t pi = 0; pi < instance.pairs().size(); ++pi) {
    const FriendPair& pair = instance.pairs()[pi];
    for (size_t wi = 0; wi < pair.weights.size(); ++wi) {
      const ItemId c = pair.weights[wi].item;
      lp.AddRow(RowType::kLessEqual, 0.0,
                {{map.XVar(pair.v, c, m), 1.0},
                 {map.XVar(pair.u, c, m), -1.0},
                 {map.s[pi][wi], -1.0}});
    }
  }
  return lp;
}

}  // namespace

Result<LpModel> BuildCompactLp(const SvgicInstance& instance,
                               CompactLpMap* map) {
  SAVG_RETURN_NOT_OK(CheckCompactLpInstance(instance));
  return CompactLpModel(instance, *map, LayOutCompactLp(instance, map));
}

CompactLpKeys BuildCompactLpKeys(const SvgicInstance& instance,
                                 const CompactLpMap& map, const LpModel& lp) {
  return KeysOf(instance, map, lp.num_vars());
}

Result<bool> CompactLpEngine::Refresh(const SvgicInstance& instance) {
  SAVG_RETURN_NOT_OK(CheckCompactLpInstance(instance));
  CompactLpMap map;
  const int num_vars = LayOutCompactLp(instance, &map);
  CompactLpKeys keys = KeysOf(instance, map, num_vars);
  // The map is taken either way: under equal keys it numbers the same
  // columns, but an added item nobody uses widens it.
  map_ = std::move(map);
  if (simplex_.loaded() && instance.num_slots() == num_slots_ &&
      keys.cols == keys_.cols && keys.rows == keys_.rows) {
    // The same columns and rows in the same order, and the same k: the
    // matrix, the lower bounds and the rhs are as loaded.
    CompactLpValues(instance, map_, num_vars, &objective_, &upper_);
    simplex_.SetValues(objective_, upper_);
    return false;
  }
  keys_ = std::move(keys);
  num_slots_ = instance.num_slots();
  Status loaded = simplex_.Load(CompactLpModel(instance, map_, num_vars));
  if (!loaded.ok()) {
    keys_ = CompactLpKeys();
    return loaded;
  }
  return true;
}

Result<LpModel> BuildExpandedLp(const SvgicInstance& instance,
                                ExpandedLpMap* map) {
  SAVG_RETURN_NOT_OK(instance.Validate());
  if (instance.lambda() <= 0.0) {
    return Status::InvalidArgument("expanded LP requires lambda > 0");
  }
  const int n = instance.num_users();
  const int m = instance.num_items();
  const int k = instance.num_slots();

  LpModel lp;
  lp.SetMaximize(true);
  map->num_items = m;
  map->num_slots = k;
  map->x.assign(static_cast<size_t>(n) * k * m, -1);
  map->y.assign(instance.pairs().size(), {});
  map->z.clear();

  for (UserId u = 0; u < n; ++u) {
    for (SlotId s = 0; s < k; ++s) {
      for (ItemId c = 0; c < m; ++c) {
        map->x[(static_cast<size_t>(u) * k + s) * m + c] =
            lp.AddVariable(0.0, 1.0, instance.ScaledP(u, c));
      }
    }
  }
  // Constraint (2): each (u, s) displays exactly one item.
  for (UserId u = 0; u < n; ++u) {
    for (SlotId s = 0; s < k; ++s) {
      std::vector<LpTerm> row;
      row.reserve(m);
      for (ItemId c = 0; c < m; ++c) row.push_back({map->XVar(u, s, c), 1.0});
      lp.AddRow(RowType::kEqual, 1.0, std::move(row));
    }
  }
  // Constraint (1): no-duplication, sum_s x_{u,s}^c <= 1.
  for (UserId u = 0; u < n; ++u) {
    for (ItemId c = 0; c < m; ++c) {
      std::vector<LpTerm> row;
      row.reserve(k);
      for (SlotId s = 0; s < k; ++s) row.push_back({map->XVar(u, s, c), 1.0});
      lp.AddRow(RowType::kLessEqual, 1.0, std::move(row));
    }
  }
  // Co-display variables y_{e,s}^c with constraints (5), (6).
  for (size_t pi = 0; pi < instance.pairs().size(); ++pi) {
    const FriendPair& pair = instance.pairs()[pi];
    map->y[pi].assign(pair.weights.size(), {});
    for (size_t wi = 0; wi < pair.weights.size(); ++wi) {
      const ItemValue& iv = pair.weights[wi];
      map->y[pi][wi].resize(k);
      for (SlotId s = 0; s < k; ++s) {
        const int y = lp.AddVariable(0.0, 1.0, iv.value);
        map->y[pi][wi][s] = y;
        lp.AddRow(RowType::kLessEqual, 0.0,
                  {{y, 1.0}, {map->XVar(pair.u, s, iv.item), -1.0}});
        lp.AddRow(RowType::kLessEqual, 0.0,
                  {{y, 1.0}, {map->XVar(pair.v, s, iv.item), -1.0}});
      }
    }
  }
  return lp;
}

Result<LpModel> BuildStLp(const SvgicInstance& instance, double d_tel,
                          int size_cap, ExpandedLpMap* map) {
  if (d_tel < 0.0 || d_tel >= 1.0) {
    return Status::InvalidArgument("d_tel must be in [0, 1)");
  }
  if (size_cap < 1) return Status::InvalidArgument("size cap must be >= 1");
  auto lp_result = BuildExpandedLp(instance, map);
  if (!lp_result.ok()) return lp_result.status();
  LpModel lp = std::move(lp_result).value();
  const int n = instance.num_users();
  const int m = instance.num_items();
  const int k = instance.num_slots();

  // Rescale y objectives by (1 - d_tel) and add z variables with d_tel
  // weight and constraints (8), (9): z_e^c <= sum_s x_{u,s}^c.
  map->z.assign(instance.pairs().size(), {});
  for (size_t pi = 0; pi < instance.pairs().size(); ++pi) {
    const FriendPair& pair = instance.pairs()[pi];
    map->z[pi].resize(pair.weights.size());
    for (size_t wi = 0; wi < pair.weights.size(); ++wi) {
      const ItemValue& iv = pair.weights[wi];
      for (SlotId s = 0; s < k; ++s) {
        lp.SetObjectiveCoefficient(map->y[pi][wi][s],
                                   (1.0 - d_tel) * iv.value);
      }
      const int z = lp.AddVariable(0.0, 1.0, d_tel * iv.value);
      map->z[pi][wi] = z;
      for (UserId endpoint : {pair.u, pair.v}) {
        std::vector<LpTerm> row = {{z, 1.0}};
        for (SlotId s = 0; s < k; ++s) {
          row.push_back({map->XVar(endpoint, s, iv.item), -1.0});
        }
        lp.AddRow(RowType::kLessEqual, 0.0, std::move(row));
      }
    }
  }
  // Subgroup size rows: sum_u x_{u,s}^c <= M for every (item, slot).
  for (ItemId c = 0; c < m; ++c) {
    for (SlotId s = 0; s < k; ++s) {
      std::vector<LpTerm> row;
      row.reserve(n);
      for (UserId u = 0; u < n; ++u) row.push_back({map->XVar(u, s, c), 1.0});
      lp.AddRow(RowType::kLessEqual, static_cast<double>(size_cap),
                std::move(row));
    }
  }
  return lp;
}

PairwiseConcaveProblem BuildConcaveProblem(const SvgicInstance& instance) {
  PairwiseConcaveProblem problem;
  const int n = instance.num_users();
  const int m = instance.num_items();
  problem.num_agents = n;
  problem.num_items = m;
  problem.k = instance.num_slots();
  problem.linear.resize(static_cast<size_t>(n) * m);
  for (UserId u = 0; u < n; ++u) {
    for (ItemId c = 0; c < m; ++c) {
      problem.linear[static_cast<size_t>(u) * m + c] = instance.ScaledP(u, c);
    }
  }
  for (const FriendPair& pair : instance.pairs()) {
    ConcavePair cp;
    cp.a = pair.u;
    cp.b = pair.v;
    cp.weights.reserve(pair.weights.size());
    for (const ItemValue& iv : pair.weights) {
      cp.weights.emplace_back(iv.item, static_cast<double>(iv.value));
    }
    if (!cp.weights.empty()) problem.pairs.push_back(std::move(cp));
  }
  return problem;
}

namespace {

/// Exact solution of the lambda = 0 special case: each user independently
/// gets her top-k items (integral, hence also LP-optimal).
FractionalSolution TopKSolution(const SvgicInstance& instance) {
  const int n = instance.num_users();
  const int m = instance.num_items();
  const int k = instance.num_slots();
  FractionalSolution frac;
  frac.num_users = n;
  frac.num_items = m;
  frac.num_slots = k;
  frac.x.assign(static_cast<size_t>(n) * m, 0.0);
  frac.exact = true;
  double total = 0.0;
  std::vector<std::pair<double, ItemId>> scored(m);
  for (UserId u = 0; u < n; ++u) {
    for (ItemId c = 0; c < m; ++c) scored[c] = {instance.p(u, c), c};
    std::partial_sort(scored.begin(), scored.begin() + k, scored.end(),
                      [](const auto& a, const auto& b) {
                        return a.first > b.first;
                      });
    for (int i = 0; i < k; ++i) {
      frac.x[static_cast<size_t>(u) * m + scored[i].second] = 1.0;
      total += scored[i].first;
    }
  }
  frac.lp_objective = total;
  return frac;
}

}  // namespace

FractionalSolution CompactFractionalSolution(const SvgicInstance& instance,
                                             const CompactLpMap& map,
                                             const LpSolution& sol) {
  const int n = instance.num_users();
  const int m = instance.num_items();
  FractionalSolution frac;
  frac.num_users = n;
  frac.num_items = m;
  frac.num_slots = instance.num_slots();
  frac.x.assign(static_cast<size_t>(n) * m, 0.0);
  for (UserId u = 0; u < n; ++u) {
    for (ItemId c = 0; c < m; ++c) {
      const int var = map.XVar(u, c, m);
      if (var >= 0) frac.x[static_cast<size_t>(u) * m + c] = sol.x[var];
    }
  }
  frac.lp_objective = sol.objective;
  frac.exact = true;
  frac.simplex_iterations = sol.iterations;
  frac.warm_started = sol.warm_started;
  frac.lp_stats = sol.stats;
  return frac;
}

RelaxationMethod ChooseRelaxationMethod(const SvgicInstance& instance,
                                        const RelaxationOptions& options) {
  if (options.method != RelaxationMethod::kAuto) return options.method;
  return CompactLpRowCount(instance) <= options.auto_simplex_row_limit
             ? RelaxationMethod::kSimplex
             : RelaxationMethod::kSubgradient;
}

Result<FractionalSolution> SolveRelaxation(const SvgicInstance& instance,
                                           const RelaxationOptions& options,
                                           const LpBasis* warm_start) {
  SAVG_RETURN_NOT_OK(instance.Validate());
  Timer timer;
  const int n = instance.num_users();
  const int m = instance.num_items();
  const int k = instance.num_slots();

  if (instance.lambda() <= 0.0) {
    FractionalSolution frac = TopKSolution(instance);
    frac.solve_seconds = timer.ElapsedSeconds();
    frac.BuildSupporters(options.prune_tolerance);
    return frac;
  }

  FractionalSolution frac;
  frac.num_users = n;
  frac.num_items = m;
  frac.num_slots = k;

  switch (ChooseRelaxationMethod(instance, options)) {
    case RelaxationMethod::kSimplex: {
      CompactLpMap map;
      auto lp = BuildCompactLp(instance, &map);
      if (!lp.ok()) return lp.status();
      auto sol = SolveLp(*lp, options.simplex, warm_start);
      if (!sol.ok()) return sol.status();
      frac = CompactFractionalSolution(instance, map, *sol);
      frac.lp_basis = std::move(sol->basis);
      break;
    }
    case RelaxationMethod::kSimplexExpanded: {
      ExpandedLpMap map;
      auto lp = BuildExpandedLp(instance, &map);
      if (!lp.ok()) return lp.status();
      // Warm starts flow through the expanded path too (e.g. the final
      // basis of a previous expanded solve of the same instance shape);
      // an incompatible basis silently cold-starts.
      auto sol = SolveLp(*lp, options.simplex, warm_start);
      if (!sol.ok()) return sol.status();
      frac.x.resize(static_cast<size_t>(n) * m);
      for (UserId u = 0; u < n; ++u) {
        for (ItemId c = 0; c < m; ++c) {
          double acc = 0.0;
          for (SlotId s = 0; s < k; ++s) acc += sol->x[map.XVar(u, s, c)];
          frac.x[static_cast<size_t>(u) * m + c] = acc;
        }
      }
      frac.lp_objective = sol->objective;
      frac.exact = true;
      frac.simplex_iterations = sol->iterations;
      frac.warm_started = sol->warm_started;
      frac.lp_stats = sol->stats;
      frac.lp_basis = std::move(sol->basis);
      break;
    }
    case RelaxationMethod::kSubgradient: {
      PairwiseConcaveProblem problem = BuildConcaveProblem(instance);
      auto sol = MaximizePairwiseConcave(problem, options.subgradient);
      if (!sol.ok()) return sol.status();
      frac.x = std::move(sol->x);
      frac.lp_objective = sol->objective;
      frac.exact = false;
      break;
    }
    case RelaxationMethod::kAuto:
      return Status::Unknown("unresolved auto method");
  }
  frac.solve_seconds = timer.ElapsedSeconds();
  frac.BuildSupporters(options.prune_tolerance);
  return frac;
}

}  // namespace savg
