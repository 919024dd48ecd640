// Executable versions of the paper's theoretical constructions:
//  * Theorem 1's gap instances I_G (OPT / OPT_G = n) and I_P
//    (OPT / OPT_P = O(n)),
//  * Lemma 3's instance where independent rounding achieves only O(1/m) of
//    the optimum in expectation.

#include <gtest/gtest.h>

#include "baselines/fmg.h"
#include "baselines/per.h"
#include "core/avg.h"
#include "core/lp_formulation.h"
#include "core/objective.h"
#include "graph/generators.h"

namespace savg {
namespace {

/// Theorem 1, instance I_G: each user u_i prefers exactly the k items
/// C_i = {c_i, c_{n+i}, ..., c_{(k-1)n+i}}; no social edges.
SvgicInstance MakeTheorem1InstanceG(int n, int k) {
  SvgicInstance inst(EmptyGraph(n), n * k, k, 0.5);
  for (UserId u = 0; u < n; ++u) {
    for (int j = 0; j < k; ++j) inst.set_p(u, j * n + u, 1.0);
  }
  inst.FinalizePairs();
  return inst;
}

/// Theorem 1, instance I_P: complete graph, tau == 1 everywhere, user u_i
/// prefers C_i by epsilon over everything else.
SvgicInstance MakeTheorem1InstanceP(int n, int k, double epsilon) {
  SvgicInstance inst(CompleteGraph(n), n * k, k, 0.5);
  for (UserId u = 0; u < n; ++u) {
    for (ItemId c = 0; c < n * k; ++c) inst.set_p(u, c, 1.0 - epsilon);
    for (int j = 0; j < k; ++j) inst.set_p(u, j * n + u, 1.0);
  }
  for (const Edge& e : inst.graph().edges()) {
    for (ItemId c = 0; c < n * k; ++c) inst.set_tau(e.id, c, 1.0);
  }
  inst.FinalizePairs();
  return inst;
}

TEST(HardnessConstructionsTest, InstanceGGapIsN) {
  const int n = 6, k = 3;
  SvgicInstance inst = MakeTheorem1InstanceG(n, k);
  ASSERT_TRUE(inst.Validate().ok());
  // Optimal (personalized is optimal here): every user gets her k items.
  auto per = RunPersonalizedTopK(inst);
  ASSERT_TRUE(per.ok());
  const double opt = Evaluate(inst, *per).ScaledTotal();
  EXPECT_NEAR(opt, n * k, 1e-6);
  // Group approach: everyone sees the same k items; each item pleases
  // exactly one user => total k.
  FmgOptions fopt;
  fopt.fairness_weight = 0.0;
  auto group = RunFmg(inst, fopt);
  ASSERT_TRUE(group.ok());
  const double group_value = Evaluate(inst, *group).ScaledTotal();
  EXPECT_NEAR(group_value, k, 1e-6);
  EXPECT_NEAR(opt / group_value, n, 1e-6);
}

TEST(HardnessConstructionsTest, InstancePGapGrowsWithN) {
  const int n = 6, k = 2;
  const double eps = 1e-3;
  SvgicInstance inst = MakeTheorem1InstanceP(n, k, eps);
  ASSERT_TRUE(inst.Validate().ok());
  // Personalized: each user her own k items, no co-display.
  auto per = RunPersonalizedTopK(inst);
  ASSERT_TRUE(per.ok());
  const double per_value = Evaluate(inst, *per).ScaledTotal();
  EXPECT_NEAR(per_value, n * k, 1e-2);
  // Co-displaying one common bundle: preference ~ nk(1-eps) plus social
  // k * n(n-1) (pair weights are tau both ways = 2, times n(n-1)/2 pairs).
  FmgOptions fopt;
  fopt.fairness_weight = 0.0;
  auto group = RunFmg(inst, fopt);
  ASSERT_TRUE(group.ok());
  const double group_value = Evaluate(inst, *group).ScaledTotal();
  EXPECT_GT(group_value, per_value * (n - 1) / 2.0);
  // AVG must find (nearly) the group solution despite the epsilon bait.
  auto frac = SolveRelaxation(inst);
  ASSERT_TRUE(frac.ok());
  AvgOptions aopt;
  aopt.seed = 1;
  auto avg = RunAvgBest(inst, *frac, 5, aopt);
  ASSERT_TRUE(avg.ok());
  EXPECT_GE(Evaluate(inst, avg->config).ScaledTotal(), 0.8 * group_value);
}

TEST(HardnessConstructionsTest, Lemma3IndependentRoundingLosesFactorM) {
  // Uniform-tau instance: LP puts x = k/m everywhere; independent rounding
  // co-displays a pair at a slot with probability ~1/m.
  const int n = 5, m = 15, k = 2;
  SvgicInstance inst(CompleteGraph(n), m, k, 0.5);
  for (const Edge& e : inst.graph().edges()) {
    for (ItemId c = 0; c < m; ++c) inst.set_tau(e.id, c, 0.5);
  }
  inst.FinalizePairs();
  // The lemma's "trivial optimal LP solution": x_u^c = k/m uniformly (the
  // simplex would return some vertex among the many ties instead).
  FractionalSolution frac_v;
  frac_v.num_users = n;
  frac_v.num_items = m;
  frac_v.num_slots = k;
  frac_v.x.assign(static_cast<size_t>(n) * m,
                  static_cast<double>(k) / m);
  frac_v.lp_objective = k * 10.0;
  frac_v.BuildSupporters();
  Result<FractionalSolution> frac(std::move(frac_v));

  // Optimal co-display: everyone together on k distinct items:
  // scaled social = k * (#pairs) * w = k * 10 * 1.
  const double opt_social = k * 10.0;
  double ind_social = 0.0, avg_social = 0.0;
  const int runs = 30;
  for (int i = 0; i < runs; ++i) {
    IndependentRoundingOptions iopt;
    iopt.seed = 100 + i;
    auto ind = RunIndependentRounding(inst, *frac, iopt);
    ASSERT_TRUE(ind.ok());
    ind_social += Evaluate(inst, ind->config).social_direct;
    AvgOptions aopt;
    aopt.seed = 100 + i;
    auto avg = RunAvg(inst, *frac, aopt);
    ASSERT_TRUE(avg.ok());
    avg_social += Evaluate(inst, avg->config).social_direct;
  }
  ind_social /= runs;
  avg_social /= runs;
  // Independent rounding: expected ~ opt/m (with repair noise); CSF: ~opt.
  EXPECT_LT(ind_social, 0.35 * opt_social);
  EXPECT_GT(avg_social, 0.9 * opt_social);
}

TEST(HardnessConstructionsTest, LpIsTightOnInstanceG) {
  SvgicInstance inst = MakeTheorem1InstanceG(5, 2);
  auto frac = SolveRelaxation(inst);
  ASSERT_TRUE(frac.ok());
  EXPECT_NEAR(frac->lp_objective, 10.0, 1e-6);  // integral optimum = LP
}

}  // namespace
}  // namespace savg
