// Tests of the standalone KKT audit (src/lp/kkt.h) and the sampled
// solution self-verifier (src/obs/verify.h): a solved LP must pass, each
// perturbation class must land in its own violation bucket, and the
// verifier must route config / objective / KKT / injected failures to
// the right verify.* counters.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/lp_formulation.h"
#include "core/objective.h"
#include "lp/kkt.h"
#include "lp/lp_model.h"
#include "lp/simplex.h"
#include "metrics/registry.h"
#include "obs/verify.h"
#include "paper_example.h"

namespace savg {
namespace {

/// max x0 + 2*x1 s.t. x0 + x1 <= 1, 0 <= x <= 1. Optimal x = (0, 1),
/// row dual y = 2 (binds; the second objective coefficient prices it),
/// reduced costs d = (-1, 0).
LpModel TinyLp() {
  LpModel m;
  const int x0 = m.AddVariable(0.0, 1.0, 1.0);
  const int x1 = m.AddVariable(0.0, 1.0, 2.0);
  m.AddRow(RowType::kLessEqual, 1.0, {{x0, 1.0}, {x1, 1.0}});
  return m;
}

TEST(KktTest, OptimalPointPasses) {
  const LpModel m = TinyLp();
  const KktReport report = CheckLpKkt(m, {0.0, 1.0}, {2.0});
  EXPECT_TRUE(report.Ok(1e-9)) << report.MaxViolation();
}

TEST(KktTest, PrimalInfeasibilityIsReported) {
  const LpModel m = TinyLp();
  // x0 + x1 = 1.5 violates the row by 0.5.
  const KktReport report = CheckLpKkt(m, {0.5, 1.0}, {2.0});
  EXPECT_NEAR(report.max_primal_violation, 0.5, 1e-9);
  EXPECT_FALSE(report.Ok(1e-5));
}

TEST(KktTest, WrongDualSignIsReported) {
  const LpModel m = TinyLp();
  // A <= row must carry a nonnegative dual in maximize orientation.
  const KktReport report = CheckLpKkt(m, {0.0, 1.0}, {-2.0});
  EXPECT_GT(report.max_dual_sign_violation, 1.0);
  EXPECT_FALSE(report.Ok(1e-5));
}

TEST(KktTest, SlackRowWithNonzeroDualViolatesComplementarity) {
  LpModel m;
  const int x0 = m.AddVariable(0.0, 1.0, 1.0);
  // Two rows; the second is slack at the optimum x0 = 1.
  m.AddRow(RowType::kLessEqual, 1.0, {{x0, 1.0}});
  m.AddRow(RowType::kLessEqual, 5.0, {{x0, 1.0}});
  // Pricing the slack row (y1 = 0.5) is a complementarity violation;
  // y0 = 0.5 keeps stationarity exact (y0 + y1 = c0 = 1).
  const KktReport report = CheckLpKkt(m, {1.0}, {0.5, 0.5});
  EXPECT_NEAR(report.max_complementary_slackness, 0.5, 1e-9);
  EXPECT_NEAR(report.max_reduced_cost_violation, 0.0, 1e-9);
  EXPECT_FALSE(report.Ok(1e-5));
}

TEST(KktTest, PerturbedDualsViolateStationarity) {
  const LpModel m = TinyLp();
  // y = 0 leaves the binding row unpriced: x0 sits at its LOWER bound
  // with a positive reduced cost d0 = c0 = 1, a stationarity violation.
  const KktReport report = CheckLpKkt(m, {0.0, 1.0}, {0.0});
  EXPECT_GT(report.max_reduced_cost_violation, 0.5);
  EXPECT_FALSE(report.Ok(1e-5));
}

TEST(KktTest, SolvedLpPasses) {
  // End to end against the simplex itself on the paper example's scale:
  // a small random-ish LP solved by SolveLp must audit clean.
  LpModel m;
  std::vector<LpTerm> row1, row2;
  for (int j = 0; j < 8; ++j) {
    const int v = m.AddVariable(0.0, 1.0, 1.0 + 0.25 * j);
    row1.push_back({v, 1.0 + (j % 3)});
    row2.push_back({v, 2.0 - (j % 2)});
  }
  m.AddRow(RowType::kLessEqual, 4.0, row1);
  m.AddRow(RowType::kLessEqual, 3.0, row2);
  auto sol = SolveLp(m);
  ASSERT_TRUE(sol.ok()) << sol.status();
  const KktReport report = CheckLpKkt(m, sol->x, sol->dual_values);
  EXPECT_TRUE(report.Ok(1e-6)) << report.MaxViolation();
}

// --- SolutionVerifier -------------------------------------------------

/// A complete, duplicate-free config on the paper example: user u sees
/// items (0, 1, 2) at slots (0, 1, 2).
Configuration SimpleConfig(const SvgicInstance& inst) {
  Configuration config(inst.num_users(), inst.num_slots(),
                       inst.num_items());
  for (UserId u = 0; u < inst.num_users(); ++u) {
    for (SlotId s = 0; s < inst.num_slots(); ++s) {
      EXPECT_TRUE(config.Set(u, s, s).ok());
    }
  }
  return config;
}

VerifyJob MakeJob(const SvgicInstance& inst) {
  VerifyJob job;
  job.instance = inst;
  job.config = SimpleConfig(inst);
  job.reported_scaled_total = Evaluate(inst, job.config).ScaledTotal();
  return job;
}

TEST(SolutionVerifierTest, ConsistentJobPasses) {
  MetricsRegistry metrics;
  SolutionVerifier verifier(&metrics);
  const SvgicInstance inst = MakePaperExample(0.5);
  verifier.Enqueue(MakeJob(inst));
  verifier.Flush();
  EXPECT_EQ(metrics.GetCounter("verify.pass")->value(), 1);
  EXPECT_EQ(metrics.GetCounter("verify.fail")->value(), 0);
  EXPECT_EQ(metrics.GetCounter("verify.kkt_audits")->value(), 0);  // no LP
  EXPECT_EQ(metrics.GetHistogram("verify.latency")->count(), 1);
}

TEST(SolutionVerifierTest, ObjectiveMismatchFails) {
  MetricsRegistry metrics;
  SolutionVerifier verifier(&metrics);
  const SvgicInstance inst = MakePaperExample(0.5);
  VerifyJob job = MakeJob(inst);
  job.reported_scaled_total += 0.5;  // far beyond the relative tolerance
  verifier.Enqueue(std::move(job));
  verifier.Flush();
  EXPECT_EQ(metrics.GetCounter("verify.fail")->value(), 1);
  EXPECT_EQ(metrics.GetCounter("verify.fail.objective")->value(), 1);
  EXPECT_EQ(metrics.GetCounter("verify.pass")->value(), 0);
}

TEST(SolutionVerifierTest, InvalidConfigFails) {
  MetricsRegistry metrics;
  SolutionVerifier verifier(&metrics);
  const SvgicInstance inst = MakePaperExample(0.5);
  VerifyJob job = MakeJob(inst);
  job.config.Unset(0, 0);  // incomplete: CheckValid must reject
  verifier.Enqueue(std::move(job));
  verifier.Flush();
  EXPECT_EQ(metrics.GetCounter("verify.fail")->value(), 1);
  EXPECT_EQ(metrics.GetCounter("verify.fail.config")->value(), 1);
}

/// A job auditing a solve of the instance's compact LP, which the worker
/// builds from the instance itself.
VerifyJob MakeLpJob(const SvgicInstance& inst) {
  VerifyJob job = MakeJob(inst);
  CompactLpMap map;
  auto lp = BuildCompactLp(inst, &map);
  EXPECT_TRUE(lp.ok()) << lp.status();
  auto sol = SolveLp(*lp);
  EXPECT_TRUE(sol.ok()) << sol.status();
  job.audit_lp = true;
  job.x = sol->x;
  job.duals = sol->dual_values;
  return job;
}

TEST(SolutionVerifierTest, OptimalSolveOfTheInstanceLpPassesTheKktAudit) {
  MetricsRegistry metrics;
  SolutionVerifier verifier(&metrics);
  verifier.Enqueue(MakeLpJob(MakePaperExample(0.5)));
  verifier.Flush();
  EXPECT_EQ(metrics.GetCounter("verify.pass")->value(), 1);
  EXPECT_EQ(metrics.GetCounter("verify.kkt_audits")->value(), 1);
}

TEST(SolutionVerifierTest, BadDualsFailTheKktAudit) {
  MetricsRegistry metrics;
  SolutionVerifier verifier(&metrics);
  VerifyJob job = MakeLpJob(MakePaperExample(0.5));
  for (double& dual : job.duals) dual = -2.0 - dual;  // wrong sign
  verifier.Enqueue(std::move(job));
  verifier.Flush();
  EXPECT_EQ(metrics.GetCounter("verify.fail")->value(), 1);
  EXPECT_EQ(metrics.GetCounter("verify.fail.kkt")->value(), 1);
  EXPECT_EQ(metrics.GetCounter("verify.kkt_audits")->value(), 1);
}

TEST(SolutionVerifierTest, MisshapenLpPayloadFailsTheKktAudit) {
  MetricsRegistry metrics;
  SolutionVerifier verifier(&metrics);
  VerifyJob job = MakeLpJob(MakePaperExample(0.5));
  job.x.pop_back();  // not a point of the instance's LP
  verifier.Enqueue(std::move(job));
  verifier.Flush();
  EXPECT_EQ(metrics.GetCounter("verify.fail.kkt")->value(), 1);
}

TEST(SolutionVerifierTest, InjectedFailureTripsTheFailCounter) {
  MetricsRegistry metrics;
  SolutionVerifier verifier(&metrics);
  const SvgicInstance inst = MakePaperExample(0.5);
  verifier.InjectFailures(true);
  verifier.Enqueue(MakeJob(inst));
  verifier.Flush();
  EXPECT_EQ(metrics.GetCounter("verify.fail")->value(), 1);
  EXPECT_EQ(metrics.GetCounter("verify.fail.injected")->value(), 1);
  // Back off: the same job passes again.
  verifier.InjectFailures(false);
  verifier.Enqueue(MakeJob(inst));
  verifier.Flush();
  EXPECT_EQ(metrics.GetCounter("verify.pass")->value(), 1);
}

TEST(SolutionVerifierTest, SamplingHonorsRateAndForce) {
  MetricsRegistry metrics;
  VerifierOptions options;
  options.sample_every = 4;
  SolutionVerifier verifier(&metrics, options);
  int sampled = 0;
  for (int i = 0; i < 16; ++i) {
    if (verifier.ShouldVerify(/*forced=*/false)) ++sampled;
  }
  EXPECT_EQ(sampled, 4);  // every 4th
  EXPECT_TRUE(verifier.ShouldVerify(/*forced=*/true));

  VerifierOptions forced_only;
  forced_only.sample_every = 0;
  SolutionVerifier gate(&metrics, forced_only);
  for (int i = 0; i < 16; ++i) {
    EXPECT_FALSE(gate.ShouldVerify(/*forced=*/false));
  }
  EXPECT_TRUE(gate.ShouldVerify(/*forced=*/true));
}

TEST(SolutionVerifierTest, OverflowDropsInsteadOfBlocking) {
  MetricsRegistry metrics;
  VerifierOptions options;
  options.max_pending = 0;  // everything drops: worst-case bound
  SolutionVerifier verifier(&metrics, options);
  const SvgicInstance inst = MakePaperExample(0.5);
  verifier.Enqueue(MakeJob(inst));
  verifier.Flush();
  EXPECT_EQ(metrics.GetCounter("verify.dropped")->value(), 1);
  EXPECT_EQ(metrics.GetCounter("verify.pass")->value(), 0);
}

TEST(ScopedForceVerifyTest, RestoresPreviousValue) {
  EXPECT_FALSE(ForceVerifyRequested());
  {
    ScopedForceVerify outer(true);
    EXPECT_TRUE(ForceVerifyRequested());
    {
      ScopedForceVerify inner(false);
      EXPECT_FALSE(ForceVerifyRequested());
    }
    EXPECT_TRUE(ForceVerifyRequested());
  }
  EXPECT_FALSE(ForceVerifyRequested());
}

}  // namespace
}  // namespace savg
