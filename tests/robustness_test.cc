// Degenerate and boundary SVGIC instances: the full pipeline must behave
// sensibly on a single user, k = m, an edgeless group, all-zero utilities,
// and lambda at the endpoints of [0, 1].

#include <gtest/gtest.h>

#include "baselines/fmg.h"
#include "baselines/per.h"
#include "core/avg.h"
#include "core/avg_d.h"
#include "core/lp_formulation.h"
#include "core/objective.h"
#include "experiments/runner.h"
#include "graph/generators.h"

namespace savg {
namespace {

TEST(RobustnessTest, SingleUserReducesToTopK) {
  SvgicInstance inst(SocialGraph(1), 6, 3, 0.5);
  const double prefs[6] = {0.1, 0.9, 0.3, 0.8, 0.2, 0.7};
  for (ItemId c = 0; c < 6; ++c) inst.set_p(0, c, prefs[c]);
  inst.FinalizePairs();
  auto frac = SolveRelaxation(inst);
  ASSERT_TRUE(frac.ok()) << frac.status();
  auto avg_d = RunAvgD(inst, *frac);
  ASSERT_TRUE(avg_d.ok());
  ASSERT_TRUE(avg_d->config.CheckValid().ok());
  // The three items must be the top three {c1, c3, c5}.
  EXPECT_TRUE(avg_d->config.Displays(0, 1));
  EXPECT_TRUE(avg_d->config.Displays(0, 3));
  EXPECT_TRUE(avg_d->config.Displays(0, 5));
  EXPECT_NEAR(Evaluate(inst, avg_d->config).ScaledTotal(), 0.9 + 0.8 + 0.7,
              1e-5);
}

TEST(RobustnessTest, KEqualsMForcesEveryItem) {
  // With k = m every user must display every item exactly once; only the
  // slot alignment is free.
  SvgicInstance inst(CompleteGraph(3), 4, 4, 0.5);
  Rng rng(3);
  for (UserId u = 0; u < 3; ++u) {
    for (ItemId c = 0; c < 4; ++c) inst.set_p(u, c, rng.Uniform(0, 1));
  }
  for (const Edge& e : inst.graph().edges()) {
    for (ItemId c = 0; c < 4; ++c) inst.set_tau(e.id, c, rng.Uniform(0, 1));
  }
  inst.FinalizePairs();
  auto frac = SolveRelaxation(inst);
  ASSERT_TRUE(frac.ok()) << frac.status();
  auto avg_d = RunAvgD(inst, *frac);
  ASSERT_TRUE(avg_d.ok());
  ASSERT_TRUE(avg_d->config.CheckValid().ok());
  for (UserId u = 0; u < 3; ++u) {
    for (ItemId c = 0; c < 4; ++c) EXPECT_TRUE(avg_d->config.Displays(u, c));
  }
  // Best alignment co-displays everything: the social part should be the
  // full pair mass (an optimal alignment exists since k = m; AVG-D should
  // find most of it — require at least the preference-only LP gap closed).
  const ObjectiveBreakdown obj = Evaluate(inst, avg_d->config);
  EXPECT_GT(obj.social_direct, 0.0);
}

TEST(RobustnessTest, EdgelessGroupNoSocialUtility) {
  SvgicInstance inst(EmptyGraph(4), 8, 2, 0.5);
  Rng rng(5);
  for (UserId u = 0; u < 4; ++u) {
    for (ItemId c = 0; c < 8; ++c) inst.set_p(u, c, rng.Uniform(0, 1));
  }
  inst.FinalizePairs();
  auto frac = SolveRelaxation(inst);
  ASSERT_TRUE(frac.ok());
  auto avg = RunAvg(inst, *frac, {});
  ASSERT_TRUE(avg.ok());
  EXPECT_TRUE(avg->config.CheckValid().ok());
  EXPECT_DOUBLE_EQ(Evaluate(inst, avg->config).social_direct, 0.0);
  // AVG must match PER here (no social trade-off to make).
  auto per = RunPersonalizedTopK(inst);
  EXPECT_NEAR(Evaluate(inst, avg->config).ScaledTotal(),
              Evaluate(inst, *per).ScaledTotal(), 1e-6);
}

TEST(RobustnessTest, AllZeroUtilitiesStillValid) {
  SvgicInstance inst(CompleteGraph(3), 5, 2, 0.5);
  inst.FinalizePairs();
  auto frac = SolveRelaxation(inst);
  ASSERT_TRUE(frac.ok()) << frac.status();
  auto avg = RunAvg(inst, *frac, {});
  auto avg_d = RunAvgD(inst, *frac);
  ASSERT_TRUE(avg.ok() && avg_d.ok());
  EXPECT_TRUE(avg->config.CheckValid().ok());
  EXPECT_TRUE(avg_d->config.CheckValid().ok());
  EXPECT_DOUBLE_EQ(Evaluate(inst, avg->config).Total(), 0.0);
}

TEST(RobustnessTest, LambdaOneIsPureSocial) {
  // lambda = 1: preference contributes nothing; co-display is everything.
  SvgicInstance inst(CompleteGraph(4), 6, 2, 1.0);
  for (const Edge& e : inst.graph().edges()) {
    inst.set_tau(e.id, 0, 0.5);
    inst.set_tau(e.id, 1, 0.5);
  }
  for (UserId u = 0; u < 4; ++u) {
    for (ItemId c = 2; c < 6; ++c) inst.set_p(u, c, 1.0);  // bait items
  }
  inst.FinalizePairs();
  auto frac = SolveRelaxation(inst);
  ASSERT_TRUE(frac.ok());
  auto avg_d = RunAvgD(inst, *frac);
  ASSERT_TRUE(avg_d.ok());
  // Everyone ends up co-displaying items 0 and 1 despite the preference
  // bait (which carries zero weight at lambda = 1).
  const ObjectiveBreakdown obj = Evaluate(inst, avg_d->config);
  EXPECT_NEAR(obj.social_direct, 2 * 6 * 1.0, 1e-6);  // 6 pairs, w=1, 2 slots
}

TEST(RobustnessTest, AvgLsRunnerVariantImprovesOnAvg) {
  DatasetParams params;
  params.kind = DatasetKind::kYelp;
  params.num_users = 14;
  params.num_items = 40;
  params.num_slots = 4;
  params.seed = 77;
  auto inst = GenerateDataset(params);
  ASSERT_TRUE(inst.ok());
  SolverOptions config;
  auto avg = RunAlgorithm(*inst, "AVG", config);
  auto avg_ls = RunAlgorithm(*inst, "AVG+LS", config);
  ASSERT_TRUE(avg.ok() && avg_ls.ok());
  EXPECT_TRUE(avg_ls->config.CheckValid().ok());
  EXPECT_GE(avg_ls->scaled_total, avg->scaled_total - 1e-9);
  EXPECT_EQ(avg_ls->solver, "AVG+LS");
}

}  // namespace
}  // namespace savg
