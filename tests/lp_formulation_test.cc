#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "baselines/brute_force.h"
#include "core/lp_formulation.h"
#include "core/objective.h"
#include "datagen/datasets.h"
#include "lp/kkt.h"
#include "lp/simplex.h"
#include "paper_example.h"

namespace savg {
namespace {

/// Small random instance helper.
SvgicInstance RandomInstance(int n, int m, int k, double lambda,
                             uint64_t seed) {
  DatasetParams params;
  params.kind = DatasetKind::kTimik;
  params.num_users = n;
  params.num_items = m;
  params.num_slots = k;
  params.lambda = lambda;
  params.seed = seed;
  params.universe_users = 4 * n + 20;
  UtilityModelParams u = DefaultUtilityParams(DatasetKind::kTimik);
  u.pref_pool = 0;  // dense small instances
  u.tau_pool = 0;
  params.utility = u;
  params.override_utility = true;
  auto inst = GenerateDataset(params);
  EXPECT_TRUE(inst.ok()) << inst.status();
  return std::move(inst).value();
}

/// Solves the engine's LP and a fresh BuildCompactLp of `inst` from the
/// same warm basis: layout, keys and every output must agree bit for bit.
/// Returns the engine's final basis.
LpBasis ExpectEngineMatchesFreshBuild(CompactLpEngine* engine,
                                      const SvgicInstance& inst,
                                      const LpBasis& warm, int64_t* reused) {
  CompactLpMap map;
  auto lp = BuildCompactLp(inst, &map);
  EXPECT_TRUE(lp.ok()) << lp.status();
  if (!lp.ok()) return {};
  EXPECT_EQ(engine->map().x, map.x);
  EXPECT_EQ(engine->map().filler, map.filler);
  EXPECT_EQ(engine->map().s, map.s);
  const CompactLpKeys keys = BuildCompactLpKeys(inst, map, *lp);
  EXPECT_EQ(engine->keys().cols, keys.cols);
  EXPECT_EQ(engine->keys().rows, keys.rows);
  const LpBasis* start = warm.Empty() ? nullptr : &warm;
  auto want = SolveLp(*lp, {}, start);
  auto got = engine->simplex().Solve({}, start);
  EXPECT_TRUE(want.ok() && got.ok());
  if (!want.ok() || !got.ok()) return {};
  EXPECT_EQ(got->x, want->x);
  EXPECT_EQ(got->dual_values, want->dual_values);
  EXPECT_EQ(got->objective, want->objective);
  EXPECT_EQ(got->iterations, want->iterations);
  EXPECT_EQ(got->basis.structural, want->basis.structural);
  EXPECT_EQ(got->basis.logical, want->basis.logical);
  EXPECT_EQ(got->stats.refactorizations + got->stats.reused_factorizations,
            want->stats.refactorizations);
  *reused += got->stats.reused_factorizations;
  return got->basis;
}

TEST(CompactLpEngineTest, RefreshEqualsAFreshBuildAcrossEdits) {
  DatasetParams params;  // sparse utilities: users keep filler columns
  params.kind = DatasetKind::kTimik;
  params.num_users = 10;
  params.num_items = 16;
  params.num_slots = 2;
  params.seed = 5;
  params.universe_users = 60;
  auto generated = GenerateDataset(params);
  ASSERT_TRUE(generated.ok()) << generated.status();
  SvgicInstance inst = std::move(*generated);
  CompactLpEngine engine;
  int64_t reused = 0;
  auto refresh = [&](bool want_rebuild) {
    auto rebuilt = engine.Refresh(inst);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
    EXPECT_EQ(*rebuilt, want_rebuild);
  };
  refresh(true);
  LpBasis basis = ExpectEngineMatchesFreshBuild(&engine, inst, {}, &reused);
  refresh(false);  // nothing changed
  basis = ExpectEngineMatchesFreshBuild(&engine, inst, basis, &reused);
  refresh(false);
  basis = ExpectEngineMatchesFreshBuild(&engine, inst, basis, &reused);
  EXPECT_GT(reused, 0);  // the 0-pivot resolve started from the last LU

  // Value edits keep every key: a preference on a useful item, lambda.
  UserId u = 0;
  ItemId useful = 0;
  while (inst.p(u, useful) <= 0.0) ++useful;
  inst.set_p(u, useful, inst.p(u, useful) * 1.5);
  refresh(false);
  basis = ExpectEngineMatchesFreshBuild(&engine, inst, basis, &reused);
  inst.set_lambda(0.6);
  refresh(false);
  basis = ExpectEngineMatchesFreshBuild(&engine, inst, basis, &reused);

  // An added item nobody uses gives every user a filler column; once all
  // have one, the next such item widens the map and every filler's bound
  // but changes no key.
  bool all_fillers = true;
  for (UserId v = 0; v < inst.num_users(); ++v) {
    all_fillers = all_fillers && engine.map().filler[v] >= 0;
  }
  inst.AddItem();
  refresh(!all_fillers);
  if (!all_fillers) {
    basis = ExpectEngineMatchesFreshBuild(&engine, inst, {}, &reused);
    inst.AddItem();
    refresh(false);
  }
  basis = ExpectEngineMatchesFreshBuild(&engine, inst, basis, &reused);

  // A preference on a folded item makes it a column: the LP is rebuilt
  // (the session then projects the basis; a stale one cold-starts here).
  ItemId folded = 0;
  while (inst.p(u, folded) > 0.0 ||
         engine.map().XVar(u, folded, inst.num_items()) >= 0) {
    ++folded;
  }
  inst.set_p(u, folded, 0.7);
  refresh(true);
  ExpectEngineMatchesFreshBuild(&engine, inst, {}, &reused);
}

TEST(LpFormulationTest, Observation2CompactEqualsExpanded) {
  // OPT_SIMP == OPT_SVGIC (Observation 2) on random small instances.
  for (uint64_t seed : {1u, 2u, 3u}) {
    SvgicInstance inst = RandomInstance(5, 8, 3, 0.5, seed);
    CompactLpMap cmap;
    auto compact = BuildCompactLp(inst, &cmap);
    ASSERT_TRUE(compact.ok()) << compact.status();
    ExpandedLpMap emap;
    auto expanded = BuildExpandedLp(inst, &emap);
    ASSERT_TRUE(expanded.ok()) << expanded.status();
    auto sol_c = SolveLp(*compact);
    auto sol_e = SolveLp(*expanded);
    ASSERT_TRUE(sol_c.ok()) << sol_c.status();
    ASSERT_TRUE(sol_e.ok()) << sol_e.status();
    EXPECT_NEAR(sol_c->objective, sol_e->objective,
                1e-6 * (1.0 + std::abs(sol_c->objective)));
  }
}

/// The textbook LP_SIMP with two cap rows per co-display entry, y <= x_u
/// and y <= x_v, and y at cost tau: the oracle the one-row form must agree
/// with. Useless items fold into a filler exactly as in BuildCompactLp.
LpModel TwoCapCompactLp(const SvgicInstance& inst) {
  const int n = inst.num_users();
  const int m = inst.num_items();
  LpModel lp;
  lp.SetMaximize(true);
  std::vector<int> x(static_cast<size_t>(n) * m, -1);
  for (UserId u = 0; u < n; ++u) {
    std::vector<bool> useful(m, false);
    for (ItemId c = 0; c < m; ++c) useful[c] = inst.p(u, c) > 0.0;
    for (int pi : inst.PairsOfUser(u)) {
      for (const ItemValue& iv : inst.pairs()[pi].weights) {
        useful[iv.item] = true;
      }
    }
    std::vector<LpTerm> mass_row;
    const int useless =
        static_cast<int>(std::count(useful.begin(), useful.end(), false));
    for (ItemId c = 0; c < m; ++c) {
      if (!useful[c]) continue;
      x[static_cast<size_t>(u) * m + c] =
          lp.AddVariable(0.0, 1.0, inst.ScaledP(u, c));
      mass_row.push_back({x[static_cast<size_t>(u) * m + c], 1.0});
    }
    if (useless > 0) {
      mass_row.push_back({lp.AddVariable(0.0, useless, 0.0), 1.0});
    }
    lp.AddRow(RowType::kEqual, inst.num_slots(), std::move(mass_row));
  }
  for (const FriendPair& pair : inst.pairs()) {
    for (const ItemValue& iv : pair.weights) {
      const int y = lp.AddVariable(0.0, 1.0, iv.value);
      const int xu = x[static_cast<size_t>(pair.u) * m + iv.item];
      const int xv = x[static_cast<size_t>(pair.v) * m + iv.item];
      lp.AddRow(RowType::kLessEqual, 0.0, {{y, 1.0}, {xu, -1.0}});
      lp.AddRow(RowType::kLessEqual, 0.0, {{y, 1.0}, {xv, -1.0}});
    }
  }
  return lp;
}

int NumEntries(const SvgicInstance& inst) {
  int entries = 0;
  for (const FriendPair& pair : inst.pairs()) {
    entries += static_cast<int>(pair.weights.size());
  }
  return entries;
}

SvgicInstance Dataset(DatasetKind kind, int n, int m, int k, uint64_t seed) {
  DatasetParams params;
  params.kind = kind;
  params.num_users = n;
  params.num_items = m;
  params.num_slots = k;
  params.seed = seed;
  auto inst = GenerateDataset(params);
  EXPECT_TRUE(inst.ok()) << inst.status();
  return std::move(inst).value();
}

TEST(LpFormulationTest, OneRowPerEntryMatchesTwoCapOracle) {
  std::vector<std::pair<std::string, SvgicInstance>> cases;
  for (uint64_t seed : {1u, 2u, 3u}) {
    cases.emplace_back("timik 12x24x3 s" + std::to_string(seed),
                       Dataset(DatasetKind::kTimik, 12, 24, 3, seed));
    cases.emplace_back("yelp 10x60x4 s" + std::to_string(seed),
                       Dataset(DatasetKind::kYelp, 10, 60, 4, seed));
  }
  for (double lambda : {0.3, 0.5, 0.7}) {
    SvgicInstance inst = MakePaperExample(lambda);
    inst.FinalizePairs();
    cases.emplace_back("paper example lambda " + std::to_string(lambda),
                       std::move(inst));
  }
  for (const auto& [name, inst] : cases) {
    SCOPED_TRACE(name);
    const int n = inst.num_users();
    const int m = inst.num_items();
    ASSERT_GT(NumEntries(inst), 0);
    CompactLpMap map;
    auto lp = BuildCompactLp(inst, &map);
    ASSERT_TRUE(lp.ok()) << lp.status();
    EXPECT_EQ(lp->num_rows(), n + NumEntries(inst));
    EXPECT_EQ(CompactLpRowCount(inst), n + 2 * NumEntries(inst));

    auto sol = SolveLp(*lp);
    ASSERT_TRUE(sol.ok()) << sol.status();
    auto oracle = SolveLp(TwoCapCompactLp(inst));
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    const double scale = std::max(1.0, std::abs(oracle->objective));
    EXPECT_LE(std::abs(sol->objective - oracle->objective), 1e-9 * scale);
    EXPECT_TRUE(CheckLpKkt(*lp, sol->x, sol->dual_values).Ok(1e-7));

    // y = min(x_u, x_v) and s = max(0, x_v - x_u) reproduce the objective.
    const FractionalSolution frac = CompactFractionalSolution(inst, map, *sol);
    double total = 0.0;
    for (UserId u = 0; u < n; ++u) {
      for (ItemId c = 0; c < m; ++c) {
        total += inst.ScaledP(u, c) * frac.XCompact(u, c);
      }
    }
    for (size_t pi = 0; pi < inst.pairs().size(); ++pi) {
      const FriendPair& pair = inst.pairs()[pi];
      for (size_t wi = 0; wi < pair.weights.size(); ++wi) {
        const ItemValue& iv = pair.weights[wi];
        const double xu = frac.XCompact(pair.u, iv.item);
        const double xv = frac.XCompact(pair.v, iv.item);
        EXPECT_NEAR(sol->x[map.s[pi][wi]], std::max(0.0, xv - xu), 1e-9);
        total += iv.value * std::min(xu, xv);
      }
    }
    EXPECT_LE(std::abs(total - sol->objective), 1e-9 * scale);
  }
}

TEST(LpFormulationTest, AutoRoutingKeepsTheTwoCapRowMeasure) {
  // The 4000-row kAuto limit was calibrated on n + 2 * entries rows; the
  // measure keeps that value although the built LP has n + entries rows.
  const RelaxationOptions options;
  const SvgicInstance timik = Dataset(DatasetKind::kTimik, 20, 40, 3, 1);
  const SvgicInstance yelp = Dataset(DatasetKind::kYelp, 20, 200, 5, 2);
  const SvgicInstance large = Dataset(DatasetKind::kYelp, 40, 2000, 10, 1);
  for (const SvgicInstance* inst : {&timik, &yelp, &large}) {
    EXPECT_EQ(CompactLpRowCount(*inst),
              inst->num_users() + 2 * NumEntries(*inst));
  }
  EXPECT_EQ(ChooseRelaxationMethod(timik, options),
            RelaxationMethod::kSimplex);
  EXPECT_EQ(ChooseRelaxationMethod(yelp, options), RelaxationMethod::kSimplex);
  EXPECT_EQ(ChooseRelaxationMethod(large, options),
            RelaxationMethod::kSubgradient);
  // Half of its 6318 measured rows would route it to the exact solver.
  EXPECT_EQ(CompactLpRowCount(large), 6318);
  EXPECT_LE(large.num_users() + NumEntries(large),
            options.auto_simplex_row_limit);
}

TEST(LpFormulationTest, CompactLpIsMuchSmaller) {
  SvgicInstance inst = RandomInstance(5, 8, 3, 0.5, 11);
  CompactLpMap cmap;
  ExpandedLpMap emap;
  auto compact = BuildCompactLp(inst, &cmap);
  auto expanded = BuildExpandedLp(inst, &emap);
  ASSERT_TRUE(compact.ok() && expanded.ok());
  EXPECT_LT(compact->num_vars() * 2, expanded->num_vars());
  EXPECT_LT(compact->num_rows() * 2, expanded->num_rows());
}

TEST(LpFormulationTest, LpUpperBoundsIntegerOptimum) {
  for (uint64_t seed : {5u, 6u}) {
    SvgicInstance inst = RandomInstance(4, 5, 2, 0.5, seed);
    auto frac = SolveRelaxation(inst);
    ASSERT_TRUE(frac.ok()) << frac.status();
    auto opt = SolveBruteForce(inst);
    ASSERT_TRUE(opt.ok()) << opt.status();
    EXPECT_GE(frac->lp_objective, opt->scaled_objective - 1e-6);
  }
}

TEST(LpFormulationTest, RelaxationMassIsK) {
  SvgicInstance inst = RandomInstance(6, 10, 4, 0.5, 21);
  auto frac = SolveRelaxation(inst);
  ASSERT_TRUE(frac.ok());
  for (UserId u = 0; u < 6; ++u) {
    double mass = 0.0;
    for (ItemId c = 0; c < 10; ++c) {
      const double x = frac->XCompact(u, c);
      EXPECT_GE(x, -1e-9);
      EXPECT_LE(x, 1.0 + 1e-9);
      mass += x;
    }
    EXPECT_NEAR(mass, 4.0, 1e-6);
  }
}

TEST(LpFormulationTest, SimplexExpandedCompressesToCompactOptimum) {
  SvgicInstance inst = MakePaperExample(0.5);
  RelaxationOptions opt;
  opt.method = RelaxationMethod::kSimplexExpanded;
  auto expanded = SolveRelaxation(inst, opt);
  ASSERT_TRUE(expanded.ok()) << expanded.status();
  opt.method = RelaxationMethod::kSimplex;
  auto compact = SolveRelaxation(inst, opt);
  ASSERT_TRUE(compact.ok());
  EXPECT_NEAR(expanded->lp_objective, compact->lp_objective, 1e-5);
}

TEST(LpFormulationTest, SubgradientApproachesSimplexOptimum) {
  SvgicInstance inst = RandomInstance(6, 10, 3, 0.5, 31);
  RelaxationOptions exact_opt;
  exact_opt.method = RelaxationMethod::kSimplex;
  auto exact = SolveRelaxation(inst, exact_opt);
  ASSERT_TRUE(exact.ok()) << exact.status();
  RelaxationOptions approx_opt;
  approx_opt.method = RelaxationMethod::kSubgradient;
  approx_opt.subgradient.max_iterations = 400;
  approx_opt.subgradient.polish_sweeps = 6;
  auto approx = SolveRelaxation(inst, approx_opt);
  ASSERT_TRUE(approx.ok());
  EXPECT_FALSE(approx->exact);
  EXPECT_LE(approx->lp_objective, exact->lp_objective + 1e-6);
  EXPECT_GE(approx->lp_objective, 0.9 * exact->lp_objective);
}

TEST(LpFormulationTest, LambdaZeroGivesTopK) {
  SvgicInstance inst = MakePaperExample(0.5);
  inst.set_lambda(0.0);
  auto frac = SolveRelaxation(inst);
  ASSERT_TRUE(frac.ok());
  EXPECT_TRUE(frac->exact);
  // Alice's top 3: c5, c2, c1.
  EXPECT_NEAR(frac->XCompact(kAlice, 4), 1.0, 1e-9);
  EXPECT_NEAR(frac->XCompact(kAlice, 1), 1.0, 1e-9);
  EXPECT_NEAR(frac->XCompact(kAlice, 0), 1.0, 1e-9);
  EXPECT_NEAR(frac->XCompact(kAlice, 2), 0.0, 1e-9);
}

TEST(LpFormulationTest, SupportersSortedAndPruned) {
  SvgicInstance inst = MakePaperExample(0.5);
  auto frac = SolveRelaxation(inst);
  ASSERT_TRUE(frac.ok());
  for (ItemId c : frac->active_items()) {
    const auto& sups = frac->SupportersOf(c);
    ASSERT_FALSE(sups.empty());
    for (size_t i = 0; i + 1 < sups.size(); ++i) {
      EXPECT_GE(sups[i].x, sups[i + 1].x);
    }
    for (const Supporter& s : sups) EXPECT_GT(s.x, 0.0);
  }
}

TEST(LpFormulationTest, StLpRespectsSizeRows) {
  SvgicInstance inst = MakePaperExample(0.5);
  ExpandedLpMap map;
  auto lp = BuildStLp(inst, /*d_tel=*/0.5, /*size_cap=*/2, &map);
  ASSERT_TRUE(lp.ok()) << lp.status();
  auto sol = SolveLp(*lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  // Fractional group sizes can't exceed the cap.
  for (ItemId c = 0; c < 5; ++c) {
    for (SlotId s = 0; s < 3; ++s) {
      double group = 0.0;
      for (UserId u = 0; u < 4; ++u) group += sol->x[map.XVar(u, s, c)];
      EXPECT_LE(group, 2.0 + 1e-6);
    }
  }
  EXPECT_FALSE(map.z.empty());
}

TEST(LpFormulationTest, StLpObjectiveBetweenDiscountedAndPlain) {
  SvgicInstance inst = MakePaperExample(0.5);
  ExpandedLpMap map;
  auto st = BuildStLp(inst, 0.5, /*size_cap=*/4, &map);
  ASSERT_TRUE(st.ok());
  auto st_sol = SolveLp(*st);
  ASSERT_TRUE(st_sol.ok());
  ExpandedLpMap emap;
  auto plain = BuildExpandedLp(inst, &emap);
  ASSERT_TRUE(plain.ok());
  auto plain_sol = SolveLp(*plain);
  ASSERT_TRUE(plain_sol.ok());
  // Teleportation only adds utility; with a non-binding size cap the ST
  // optimum is at least the plain optimum.
  EXPECT_GE(st_sol->objective, plain_sol->objective - 1e-6);
}

TEST(LpFormulationTest, RejectsLambdaZeroLpBuild) {
  SvgicInstance inst = MakePaperExample(0.5);
  inst.set_lambda(0.0);
  CompactLpMap map;
  EXPECT_FALSE(BuildCompactLp(inst, &map).ok());
}

TEST(LpFormulationTest, FillerVariablesForUselessItems) {
  // A 1-user instance with sparse preference: useless items fold into one
  // filler variable.
  SocialGraph g(1);
  SvgicInstance inst(g, 20, 2, 0.5);
  inst.set_p(0, 3, 0.9);
  inst.set_p(0, 7, 0.8);
  inst.FinalizePairs();
  CompactLpMap map;
  auto lp = BuildCompactLp(inst, &map);
  ASSERT_TRUE(lp.ok());
  // 2 useful x vars + 1 filler.
  EXPECT_EQ(lp->num_vars(), 3);
  EXPECT_GE(map.filler[0], 0);
  auto sol = SolveLp(*lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->objective, (0.9 + 0.8), 1e-6);  // p' = p at lambda 1/2
}

}  // namespace
}  // namespace savg
