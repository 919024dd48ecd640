#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/lp_formulation.h"
#include "datagen/datasets.h"
#include "lp/basis_lu.h"
#include "lp/branch_and_bound.h"
#include "lp/capped_simplex.h"
#include "lp/dense_matrix.h"
#include "lp/kkt.h"
#include "lp/lp_model.h"
#include "lp/simplex.h"
#include "lp/subgradient.h"
#include "paper_example.h"
#include "util/random.h"

namespace savg {
namespace {

TEST(DenseMatrixTest, IdentityInverse) {
  DenseMatrix id = DenseMatrix::Identity(4);
  auto inv = id.Inverse();
  ASSERT_TRUE(inv.ok());
  EXPECT_LT(id.InverseResidual(*inv), 1e-12);
}

TEST(DenseMatrixTest, RandomInverse) {
  Rng rng(3);
  DenseMatrix m(6, 6);
  for (size_t r = 0; r < 6; ++r)
    for (size_t c = 0; c < 6; ++c) m.At(r, c) = rng.Uniform(-1, 1);
  for (size_t i = 0; i < 6; ++i) m.At(i, i) += 3.0;  // well-conditioned
  auto inv = m.Inverse();
  ASSERT_TRUE(inv.ok());
  EXPECT_LT(m.InverseResidual(*inv), 1e-9);
}

TEST(DenseMatrixTest, SingularFails) {
  DenseMatrix m(2, 2, 1.0);  // rank 1
  EXPECT_FALSE(m.Inverse().ok());
}

TEST(DenseMatrixTest, MultiplyVector) {
  DenseMatrix m(2, 3);
  m.At(0, 0) = 1;
  m.At(0, 1) = 2;
  m.At(0, 2) = 3;
  m.At(1, 2) = 4;
  auto y = m.MultiplyVector({1, 1, 1});
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 4.0);
  auto z = m.TransposeMultiplyVector({1, 2});
  EXPECT_DOUBLE_EQ(z[2], 11.0);
}

// --- Simplex -----------------------------------------------------------

TEST(SimplexTest, TwoVariableTextbook) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0 -> (4,0), obj 12.
  LpModel m;
  int x = m.AddVariable(0, kLpInfinity, 3);
  int y = m.AddVariable(0, kLpInfinity, 2);
  m.AddRow(RowType::kLessEqual, 4, {{x, 1}, {y, 1}});
  m.AddRow(RowType::kLessEqual, 6, {{x, 1}, {y, 3}});
  auto sol = SolveLp(m);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_NEAR(sol->objective, 12.0, 1e-8);
  EXPECT_NEAR(sol->x[x], 4.0, 1e-8);
  EXPECT_NEAR(sol->x[y], 0.0, 1e-8);
}

TEST(SimplexTest, DuplicateTermsAreSummed) {
  // max 3x0 + 2x1 - x2, x0 <= 5, x1 <= 4, x2 <= 2, written twice: once
  // with repeated terms per row (x2 cancelling to an explicit 0.0 in the
  // <= row, x0 in the >= row, plus a zero coefficient), once pre-merged:
  //   1.5 x0 + 3 x1 <= 6,  2 x1 + x2 >= 1,  x0 + x1 + x2 <= 6.
  // The optimum (4, 0, 1), objective 11, is unique and nondegenerate.
  auto model = [](bool merged) {
    LpModel m;
    m.AddVariable(0, 5, 3);
    m.AddVariable(0, 4, 2);
    m.AddVariable(0, 2, -1);
    if (merged) {
      m.AddRow(RowType::kLessEqual, 6, {{0, 1.5}, {1, 3.0}});
      m.AddRow(RowType::kGreaterEqual, 1, {{1, 2.0}, {2, 1.0}});
    } else {
      m.AddRow(RowType::kLessEqual, 6,
               {{0, 1.0}, {1, 1.0}, {0, 0.5}, {2, 1.0}, {1, 2.0}, {2, -1.0},
                {1, 0.0}});
      m.AddRow(RowType::kGreaterEqual, 1,
               {{1, 1.0}, {0, 0.25}, {2, 1.0}, {1, 1.0}, {0, -0.25}});
    }
    m.AddRow(RowType::kLessEqual, 6, {{0, 1.0}, {1, 1.0}, {2, 1.0}});
    return m;
  };
  auto split = SolveLp(model(false));
  auto merged = SolveLp(model(true));
  ASSERT_TRUE(split.ok()) << split.status();
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_NEAR(merged->objective, 11.0, 1e-9);
  EXPECT_NEAR(merged->x[0], 4.0, 1e-9);
  EXPECT_NEAR(merged->x[2], 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(split->objective, merged->objective);
  for (int j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(split->x[j], merged->x[j]);
  EXPECT_TRUE(split->basis.structural == merged->basis.structural);
  EXPECT_TRUE(split->basis.logical == merged->basis.logical);

  // A term naming an unknown variable is still rejected.
  for (int bad : {3, -1}) {
    LpModel m = model(false);
    m.AddRow(RowType::kLessEqual, 1, {{0, 1.0}, {bad, 1.0}});
    auto sol = SolveLp(m);
    ASSERT_FALSE(sol.ok());
    EXPECT_EQ(sol.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(SimplexTest, EqualityConstraint) {
  // max x + 2y s.t. x + y = 3, y <= 2 -> (1,2), obj 5.
  LpModel m;
  int x = m.AddVariable(0, kLpInfinity, 1);
  int y = m.AddVariable(0, 2, 2);
  m.AddRow(RowType::kEqual, 3, {{x, 1}, {y, 1}});
  auto sol = SolveLp(m);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_NEAR(sol->objective, 5.0, 1e-8);
  EXPECT_NEAR(sol->x[y], 2.0, 1e-8);
}

TEST(SimplexTest, GreaterEqualAndMinimize) {
  // min 2x + 3y s.t. x + y >= 4, x <= 3 -> (3,1), obj 9.
  LpModel m;
  m.SetMaximize(false);
  int x = m.AddVariable(0, 3, 2);
  int y = m.AddVariable(0, kLpInfinity, 3);
  m.AddRow(RowType::kGreaterEqual, 4, {{x, 1}, {y, 1}});
  auto sol = SolveLp(m);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_NEAR(sol->objective, 9.0, 1e-8);
  EXPECT_NEAR(sol->x[x], 3.0, 1e-8);
  EXPECT_NEAR(sol->x[y], 1.0, 1e-8);
}

TEST(SimplexTest, UpperBoundedVariablesOnly) {
  // max x + y with x <= 0.5, y <= 0.25, no rows.
  LpModel m;
  int x = m.AddVariable(0, 0.5, 1);
  int y = m.AddVariable(0, 0.25, 1);
  auto sol = SolveLp(m);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_NEAR(sol->objective, 0.75, 1e-9);
  EXPECT_NEAR(sol->x[x], 0.5, 1e-9);
  EXPECT_NEAR(sol->x[y], 0.25, 1e-9);
}

TEST(SimplexTest, DetectsInfeasible) {
  LpModel m;
  int x = m.AddVariable(0, 1, 1);
  m.AddRow(RowType::kGreaterEqual, 5, {{x, 1}});
  auto sol = SolveLp(m);
  ASSERT_FALSE(sol.ok());
  EXPECT_EQ(sol.status().code(), StatusCode::kInfeasible);
}

TEST(SimplexTest, DetectsUnbounded) {
  LpModel m;
  int x = m.AddVariable(0, kLpInfinity, 1);
  m.AddRow(RowType::kGreaterEqual, 1, {{x, 1}});
  auto sol = SolveLp(m);
  ASSERT_FALSE(sol.ok());
  EXPECT_EQ(sol.status().code(), StatusCode::kUnbounded);
}

TEST(SimplexTest, NegativeRhsRows) {
  // max x s.t. -x <= -2 (i.e. x >= 2), x <= 5.
  LpModel m;
  int x = m.AddVariable(0, 5, 1);
  m.AddRow(RowType::kLessEqual, -2, {{x, -1}});
  auto sol = SolveLp(m);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_NEAR(sol->objective, 5.0, 1e-8);
}

TEST(SimplexTest, DegenerateLpTerminates) {
  // Many redundant constraints through the same vertex.
  LpModel m;
  int x = m.AddVariable(0, kLpInfinity, 1);
  int y = m.AddVariable(0, kLpInfinity, 1);
  for (int i = 1; i <= 8; ++i) {
    m.AddRow(RowType::kLessEqual, 2, {{x, 1.0}, {y, static_cast<double>(i)}});
  }
  auto sol = SolveLp(m);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_NEAR(sol->objective, 2.0, 1e-8);  // x=2, y=0
}

TEST(SimplexTest, TransportationProblem) {
  // Classic 2x3 transportation: supplies {20, 30}, demands {10, 25, 15},
  // costs row-major {2,4,5 / 3,1,7}. Min cost = 2*10+4*10+1*25+5*... check
  // via known optimum: ship (10,0,10) from s0 (cost 20+0+50), (0,25,5) from
  // s1 (cost 25+35) -> total 130? Let solver find it; validate against a
  // brute-force grid search instead.
  LpModel m;
  m.SetMaximize(false);
  const double cost[2][3] = {{2, 4, 5}, {3, 1, 7}};
  int v[2][3];
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 3; ++j)
      v[i][j] = m.AddVariable(0, kLpInfinity, cost[i][j]);
  const double supply[2] = {20, 30};
  const double demand[3] = {10, 25, 15};
  for (int i = 0; i < 2; ++i) {
    m.AddRow(RowType::kLessEqual, supply[i],
             {{v[i][0], 1}, {v[i][1], 1}, {v[i][2], 1}});
  }
  for (int j = 0; j < 3; ++j) {
    m.AddRow(RowType::kEqual, demand[j], {{v[0][j], 1}, {v[1][j], 1}});
  }
  auto sol = SolveLp(m);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_LE(sol->objective, 2 * 10 + 4 * 25 + 5 * 15 + 1);  // naive feasible
  EXPECT_NEAR(m.MaxViolation(sol->x), 0.0, 1e-7);
  // Optimal plan: s1 ships 25 to d1 and 5 to d0; s0 ships 5 to d0 and 15 to
  // d2. Cost = 25*1 + 5*3 + 5*2 + 15*5 = 125.
  EXPECT_NEAR(sol->objective, 125.0, 1e-6);
}

TEST(SimplexTest, RandomLpsAgainstVertexEnumeration) {
  // Property test: random 2-var LPs, compare against brute-force over a
  // fine grid (within grid tolerance).
  Rng rng(41);
  for (int trial = 0; trial < 25; ++trial) {
    LpModel m;
    const double c0 = rng.Uniform(-1, 2), c1 = rng.Uniform(-1, 2);
    int x = m.AddVariable(0, 1, c0);
    int y = m.AddVariable(0, 1, c1);
    const double a0 = rng.Uniform(0.2, 1), a1 = rng.Uniform(0.2, 1);
    const double rhs = rng.Uniform(0.5, 1.5);
    m.AddRow(RowType::kLessEqual, rhs, {{x, a0}, {y, a1}});
    auto sol = SolveLp(m);
    ASSERT_TRUE(sol.ok()) << sol.status();
    double best = -1e18;
    const int kGrid = 200;
    for (int i = 0; i <= kGrid; ++i) {
      for (int j = 0; j <= kGrid; ++j) {
        const double xv = static_cast<double>(i) / kGrid;
        const double yv = static_cast<double>(j) / kGrid;
        if (a0 * xv + a1 * yv <= rhs + 1e-12) {
          best = std::max(best, c0 * xv + c1 * yv);
        }
      }
    }
    EXPECT_GE(sol->objective, best - 1e-6);
    EXPECT_LE(sol->objective, best + 0.05);  // grid resolution slack
    EXPECT_NEAR(m.MaxViolation(sol->x), 0.0, 1e-7);
  }
}

// --- Sparse LU vs dense equivalence --------------------------------------

/// Random bounded LP with mixed row types; some vars unbounded above.
LpModel RandomLp(Rng* rng, int num_vars, int num_rows) {
  LpModel m;
  m.SetMaximize(rng->Bernoulli(0.5));
  for (int j = 0; j < num_vars; ++j) {
    const double lo = rng->Uniform(0, 0.5);
    const double hi = rng->Bernoulli(0.2) ? kLpInfinity
                                          : lo + rng->Uniform(0.5, 3.0);
    m.AddVariable(lo, hi, rng->Uniform(-2, 2));
  }
  for (int i = 0; i < num_rows; ++i) {
    std::vector<LpTerm> terms;
    for (int j = 0; j < num_vars; ++j) {
      if (rng->Bernoulli(0.5)) terms.push_back({j, rng->Uniform(0.1, 2.0)});
    }
    if (terms.empty()) terms.push_back({0, 1.0});
    const double roll = rng->Uniform(0, 1);
    // Mostly <= rows with generous rhs so most instances are feasible.
    const RowType type = roll < 0.7
                             ? RowType::kLessEqual
                             : (roll < 0.85 ? RowType::kGreaterEqual
                                            : RowType::kEqual);
    const double rhs = rng->Uniform(1.0, 2.0 + num_vars);
    m.AddRow(type, rhs, std::move(terms));
  }
  return m;
}

/// KKT check of LpSolution::dual_values against the model, delegated to
/// the shared audit behind the serving self-verifier (lp/kkt.h) so the
/// tests and the production checker enforce the same conditions.
void CheckDualKkt(const LpModel& m, const LpSolution& sol, double tol) {
  ASSERT_EQ(static_cast<int>(sol.dual_values.size()), m.num_rows());
  const KktReport report = CheckLpKkt(m, sol.x, sol.dual_values);
  EXPECT_LE(report.max_dual_sign_violation, tol);
  EXPECT_LE(report.max_complementary_slackness, tol);
  EXPECT_LE(report.max_reduced_cost_violation, tol);
  EXPECT_TRUE(report.Ok(std::max(tol, 1e-6)))
      << "max violation " << report.MaxViolation();
}

TEST(SimplexEquivalenceTest, SparseLuMatchesDenseOnRandomLps) {
  Rng rng(1234);
  int solved = 0;
  for (int trial = 0; trial < 60; ++trial) {
    LpModel m = RandomLp(&rng, 4 + trial % 9, 2 + trial % 7);
    SimplexOptions sparse_opt;
    sparse_opt.basis = SimplexBasisType::kSparseLu;
    SimplexOptions dense_opt;
    dense_opt.basis = SimplexBasisType::kDense;
    auto sparse = SolveLp(m, sparse_opt);
    auto dense = SolveLp(m, dense_opt);
    ASSERT_EQ(sparse.ok(), dense.ok())
        << "trial " << trial << ": sparse " << sparse.status() << " dense "
        << dense.status();
    if (!sparse.ok()) {
      EXPECT_EQ(sparse.status().code(), dense.status().code());
      continue;
    }
    ++solved;
    EXPECT_NEAR(sparse->objective, dense->objective, 1e-6)
        << "trial " << trial;
    EXPECT_NEAR(m.MaxViolation(sparse->x), 0.0, 1e-6);
    EXPECT_NEAR(m.MaxViolation(dense->x), 0.0, 1e-6);
    // The generator mixes <=, >= and = rows under both objective senses,
    // so this covers every dual sign convention of LpSolution.
    CheckDualKkt(m, *sparse, 1e-6);
    CheckDualKkt(m, *dense, 1e-6);
  }
  EXPECT_GE(solved, 20);  // the generator must produce enough solvable LPs
}

TEST(SimplexEquivalenceTest, DantzigMatchesDevexPricing) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    LpModel m = RandomLp(&rng, 6, 5);
    SimplexOptions devex;
    SimplexOptions dantzig;
    dantzig.devex_pricing = false;
    auto a = SolveLp(m, devex);
    auto b = SolveLp(m, dantzig);
    ASSERT_EQ(a.ok(), b.ok());
    if (a.ok()) EXPECT_NEAR(a->objective, b->objective, 1e-6);
  }
}

// --- Partial / candidate-list pricing ------------------------------------

TEST(SimplexPricingTest, PartialMatchesFullDevexOnRandomLps) {
  // Same optimal objective whichever pricing strategy ran: optimality is
  // only declared after a full scan in both modes.
  Rng rng(321);
  int solved = 0;
  for (int trial = 0; trial < 40; ++trial) {
    LpModel m = RandomLp(&rng, 5 + trial % 10, 3 + trial % 6);
    SimplexOptions full;
    full.pricing = PricingMode::kFullDevex;
    SimplexOptions partial;
    partial.pricing = PricingMode::kPartial;
    // A tiny list maximizes rebuild churn — the stress case.
    partial.candidate_list_size = 2;
    auto a = SolveLp(m, full);
    auto b = SolveLp(m, partial);
    ASSERT_EQ(a.ok(), b.ok()) << "trial " << trial << ": full " << a.status()
                              << " partial " << b.status();
    if (!a.ok()) continue;
    ++solved;
    EXPECT_NEAR(a->objective, b->objective, 1e-6) << "trial " << trial;
    EXPECT_NEAR(m.MaxViolation(b->x), 0.0, 1e-6);
    EXPECT_GT(b->stats.full_pricing_scans, 0);  // optimality proof ran
  }
  EXPECT_GE(solved, 15);
}

TEST(SimplexPricingTest, PartialMatchesFullDevexOnPaperExample) {
  // The paper's running example, through the real compact formulation.
  for (double lambda : {0.3, 0.5, 0.7}) {
    SvgicInstance inst = MakePaperExample(lambda);
    inst.FinalizePairs();
    CompactLpMap map;
    auto lp = BuildCompactLp(inst, &map);
    ASSERT_TRUE(lp.ok()) << lp.status();
    SimplexOptions full;
    full.pricing = PricingMode::kFullDevex;
    SimplexOptions partial;
    partial.pricing = PricingMode::kPartial;
    auto a = SolveLp(*lp, full);
    auto b = SolveLp(*lp, partial);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    EXPECT_NEAR(a->objective, b->objective, 1e-8) << "lambda " << lambda;
    CheckDualKkt(*lp, *a, 1e-6);
    CheckDualKkt(*lp, *b, 1e-6);
  }
}

// --- Dual simplex ---------------------------------------------------------

TEST(DualSimplexTest, BoundChangeRepairMatchesColdSolve) {
  // The branch-and-bound child state: the parent-optimal basis is dual
  // feasible, one bound change can make it primal infeasible. The warm
  // solve must repair it dually where it is, and land on the cold optimum
  // with KKT-valid duals.
  Rng rng(555);
  int64_t warm_total = 0;
  int dual_ran = 0;
  for (int trial = 0; trial < 60; ++trial) {
    LpModel m = RandomLp(&rng, 10, 8);
    auto parent = SolveLp(m);
    if (!parent.ok()) continue;
    // Tighten the bound of a variable sitting above its lower bound, so
    // the parent basis is primal infeasible for the child whenever that
    // variable is basic and a real repair must run.
    int branch = -1;
    for (int j = 0; j < m.num_vars(); ++j) {
      if (parent->x[j] > m.lower(j) + 0.25) {
        branch = j;
        break;
      }
    }
    if (branch < 0) continue;
    m.SetBounds(branch, m.lower(branch), parent->x[branch] - 0.2);
    auto warm = SolveLp(m, {}, &parent->basis);
    auto cold = SolveLp(m);
    ASSERT_EQ(warm.ok(), cold.ok())
        << "trial " << trial << ": warm " << warm.status() << " cold "
        << cold.status();
    if (!warm.ok()) continue;
    EXPECT_TRUE(warm->warm_started);
    EXPECT_NEAR(warm->objective, cold->objective, 1e-6) << "trial " << trial;
    CheckDualKkt(m, *warm, 1e-6);
    warm_total += warm->iterations;
    if (warm->dual_simplex_used) ++dual_ran;
  }
  EXPECT_GT(dual_ran, 5);  // the dual path must actually engage
  // Exact pin (the fixtures draw only Rng::Uniform and Bernoulli, so no
  // libm call can move it). The composite-primal repair this path
  // replaced took 11 pivots over the same trials.
  EXPECT_EQ(warm_total, 6);
}

TEST(DualSimplexTest, WarmStartPicksDualOnBoundChange) {
  Rng rng(2718);
  int dual_used = 0;
  for (int trial = 0; trial < 20; ++trial) {
    LpModel m = RandomLp(&rng, 10, 8);
    auto parent = SolveLp(m);
    if (!parent.ok()) continue;
    // Tighten the bound of a basic fractional variable so the warm basis
    // is primal infeasible (nonbasic variables keep the basis feasible).
    int branch = -1;
    for (int j = 0; j < m.num_vars(); ++j) {
      const double x = parent->x[j];
      if (x > m.lower(j) + 0.25 && std::isfinite(x)) {
        branch = j;
        break;
      }
    }
    if (branch < 0) continue;
    m.SetBounds(branch, m.lower(branch),
                std::max(m.lower(branch), parent->x[branch] - 0.2));
    auto warm = SolveLp(m, {}, &parent->basis);
    auto cold = SolveLp(m);
    ASSERT_EQ(warm.ok(), cold.ok());
    if (!warm.ok()) continue;
    EXPECT_NEAR(warm->objective, cold->objective, 1e-6) << "trial " << trial;
    if (warm->dual_simplex_used) ++dual_used;
  }
  EXPECT_GT(dual_used, 0);
}

TEST(DualSimplexTest, FallsBackCleanlyWhenStartBasisDualInfeasible) {
  // Flipping objective signs makes the parent basis dual infeasible; the
  // warm solve must detect that, skip the dual method and still land on
  // the cold optimum through the primal phases.
  Rng rng(777);
  int checked = 0;
  for (int trial = 0; trial < 50; ++trial) {
    LpModel m = RandomLp(&rng, 8, 6);
    auto parent = SolveLp(m);
    if (!parent.ok()) continue;
    for (int j = 0; j < m.num_vars(); ++j) {
      m.SetObjectiveCoefficient(j, -m.objective(j) + 0.5);
    }
    // Also break primal feasibility so the solve cannot shortcut.
    m.SetBounds(0, m.lower(0),
                std::max(m.lower(0), std::floor(parent->x[0])));
    auto cold = SolveLp(m);
    auto warm = SolveLp(m, {}, &parent->basis);
    ASSERT_EQ(cold.ok(), warm.ok())
        << "trial " << trial << ": cold " << cold.status() << " warm "
        << warm.status();
    if (!cold.ok()) continue;
    ++checked;
    EXPECT_NEAR(warm->objective, cold->objective, 1e-6) << "trial " << trial;
    if (!warm->dual_simplex_used) {
      EXPECT_EQ(warm->stats.dual_pivots, 0) << "trial " << trial;
    }
  }
  EXPECT_GE(checked, 5);
}

// --- Stall / Bland fallback -----------------------------------------------

TEST(SimplexStallTest, BlandFallbackStillReachesOptimumOnPlateau) {
  // Regression for the hard-coded 1e-12 stall slack: with the slack now
  // derived from `tolerance`, a zero stall threshold must trip Bland on
  // the very first degenerate pivot and still finish at the optimum.
  // Beale's cycling example: every early pivot at the origin is
  // degenerate (both <= 0 rows are tight), so the plateau is guaranteed.
  // Stated as maximization; the known optimum is x = (1/25, 0, 1, 0) with
  // value 1/20.
  LpModel m;
  int x1 = m.AddVariable(0, kLpInfinity, 0.75);
  int x2 = m.AddVariable(0, kLpInfinity, -150.0);
  int x3 = m.AddVariable(0, kLpInfinity, 0.02);
  int x4 = m.AddVariable(0, kLpInfinity, -6.0);
  m.AddRow(RowType::kLessEqual, 0,
           {{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}});
  m.AddRow(RowType::kLessEqual, 0,
           {{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}});
  m.AddRow(RowType::kLessEqual, 1, {{x3, 1.0}});
  SimplexOptions opt;
  opt.stall_threshold = 0;  // every non-improving pivot trips Bland
  auto bland = SolveLp(m, opt);
  ASSERT_TRUE(bland.ok()) << bland.status();
  EXPECT_NEAR(bland->objective, 0.05, 1e-8);
  EXPECT_GT(bland->stats.bland_pivots, 0);
  // And a loosened tolerance must not mask the plateau either.
  opt.tolerance = 1e-6;
  auto loose = SolveLp(m, opt);
  ASSERT_TRUE(loose.ok()) << loose.status();
  EXPECT_NEAR(loose->objective, 0.05, 1e-6);
  // The default threshold reaches the same optimum Devex-only.
  auto devex = SolveLp(m);
  ASSERT_TRUE(devex.ok()) << devex.status();
  EXPECT_NEAR(devex->objective, 0.05, 1e-8);
}

// --- Warm starts ----------------------------------------------------------

TEST(SimplexWarmStartTest, WarmSolveMatchesColdAfterObjectiveChange) {
  Rng rng(4321);
  for (int trial = 0; trial < 20; ++trial) {
    LpModel m = RandomLp(&rng, 8, 6);
    auto first = SolveLp(m);
    if (!first.ok()) continue;
    // Perturb the objective (the lambda-sweep pattern: same constraints).
    for (int j = 0; j < m.num_vars(); ++j) {
      m.SetObjectiveCoefficient(j, m.objective(j) * 1.3 + 0.1);
    }
    auto cold = SolveLp(m);
    auto warm = SolveLp(m, {}, &first->basis);
    ASSERT_EQ(cold.ok(), warm.ok());
    if (!cold.ok()) continue;
    EXPECT_TRUE(warm->warm_started);
    EXPECT_NEAR(warm->objective, cold->objective, 1e-6) << "trial " << trial;
    EXPECT_NEAR(m.MaxViolation(warm->x), 0.0, 1e-6);
  }
}

TEST(SimplexWarmStartTest, WarmSolveMatchesColdAfterBoundTightening) {
  // The branch-and-bound pattern: child nodes tighten one variable bound,
  // making the parent basis primal infeasible; phase 1 must repair it.
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    LpModel m = RandomLp(&rng, 8, 6);
    auto parent = SolveLp(m);
    if (!parent.ok()) continue;
    const int branch = trial % m.num_vars();
    const double v = parent->x[branch];
    m.SetBounds(branch, m.lower(branch),
                std::max(m.lower(branch), std::floor(v)));
    auto cold = SolveLp(m);
    auto warm = SolveLp(m, {}, &parent->basis);
    ASSERT_EQ(cold.ok(), warm.ok())
        << "trial " << trial << ": cold " << cold.status() << " warm "
        << warm.status();
    if (!cold.ok()) continue;
    EXPECT_TRUE(warm->warm_started);
    EXPECT_NEAR(warm->objective, cold->objective, 1e-6) << "trial " << trial;
  }
}

TEST(SimplexWarmStartTest, IncompatibleBasisFallsBackToCold) {
  LpModel m;
  int x = m.AddVariable(0, kLpInfinity, 3);
  int y = m.AddVariable(0, kLpInfinity, 2);
  m.AddRow(RowType::kLessEqual, 4, {{x, 1}, {y, 1}});
  LpBasis wrong_shape;
  wrong_shape.structural.assign(5, VarBasisStatus::kNonbasicLower);
  wrong_shape.logical.assign(7, VarBasisStatus::kBasic);
  auto sol = SolveLp(m, {}, &wrong_shape);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_FALSE(sol->warm_started);
  EXPECT_NEAR(sol->objective, 12.0, 1e-8);
}

TEST(SimplexWarmStartTest, OptimalBasisResolvesInFewIterations) {
  Rng rng(2024);
  LpModel m = RandomLp(&rng, 12, 8);
  auto first = SolveLp(m);
  ASSERT_TRUE(first.ok()) << first.status();
  auto again = SolveLp(m, {}, &first->basis);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->warm_started);
  // Re-solving from the optimal basis needs no phase-1 pivots and at most
  // the final optimality check in phase 2.
  EXPECT_EQ(again->phase1_iterations, 0);
  EXPECT_LE(again->iterations, 2);
  EXPECT_NEAR(again->objective, first->objective, 1e-9);
}

// --- Time limit -----------------------------------------------------------

TEST(SimplexTest, TimeLimitIsEnforcedInsidePivotLoop) {
  Rng rng(5);
  LpModel m = RandomLp(&rng, 30, 25);
  SimplexOptions opt;
  opt.time_limit_seconds = 0.0;  // expired before the first pivot
  auto sol = SolveLp(m, opt);
  ASSERT_FALSE(sol.ok());
  EXPECT_EQ(sol.status().code(), StatusCode::kResourceExhausted);
}

// --- Capped simplex -----------------------------------------------------

TEST(CappedSimplexTest, ProjectionFeasible) {
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> v(20);
    for (double& x : v) x = rng.Uniform(-2, 2);
    const double k = 1 + rng.UniformInt(int64_t{1}, int64_t{10});
    auto w = v;
    ProjectCappedSimplex(&w, k);
    double total = 0;
    for (double x : w) {
      EXPECT_GE(x, -1e-9);
      EXPECT_LE(x, 1 + 1e-9);
      total += x;
    }
    EXPECT_NEAR(total, k, 1e-6);
  }
}

TEST(CappedSimplexTest, ProjectionIsIdempotentOnFeasible) {
  std::vector<double> v = {0.5, 0.5, 1.0, 0.0};
  auto w = v;
  ProjectCappedSimplex(&w, 2.0);
  for (size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(w[i], v[i], 1e-6);
}

TEST(CappedSimplexTest, ProjectionIsClosestPoint) {
  // For a 2-d case the projection onto {x0 + x1 = 1, 0<=x<=1} is computable
  // by hand: project (0.9, 0.5) -> (0.7, 0.3).
  std::vector<double> v = {0.9, 0.5};
  ProjectCappedSimplex(&v, 1.0);
  EXPECT_NEAR(v[0], 0.7, 1e-6);
  EXPECT_NEAR(v[1], 0.3, 1e-6);
}

TEST(CappedSimplexTest, LmoPicksTopK) {
  std::vector<double> g = {0.1, 0.9, 0.5, 0.7};
  auto x = CappedSimplexLmo(g, 2.0);
  EXPECT_DOUBLE_EQ(x[1], 1.0);
  EXPECT_DOUBLE_EQ(x[3], 1.0);
  EXPECT_DOUBLE_EQ(x[0], 0.0);
  EXPECT_DOUBLE_EQ(x[2], 0.0);
}

TEST(CappedSimplexTest, LmoFractionalK) {
  std::vector<double> g = {0.1, 0.9, 0.5};
  auto x = CappedSimplexLmo(g, 1.5);
  EXPECT_DOUBLE_EQ(x[1], 1.0);
  EXPECT_DOUBLE_EQ(x[2], 0.5);
}

// --- Subgradient solver ---------------------------------------------------

PairwiseConcaveProblem SmallConcaveProblem() {
  // 2 agents, 3 items, k=1. Linear prefs pull agents apart; pair weight on
  // item 0 pulls them together.
  PairwiseConcaveProblem p;
  p.num_agents = 2;
  p.num_items = 3;
  p.k = 1.0;
  p.linear = {0.6, 0.0, 0.3,   // agent 0
              0.0, 0.55, 0.3};  // agent 1
  ConcavePair pr;
  pr.a = 0;
  pr.b = 1;
  pr.weights = {{2, 1.0}};  // strong joint reward on item 2
  p.pairs.push_back(pr);
  return p;
}

TEST(SubgradientTest, FindsJointItemWhenSocialDominates) {
  auto p = SmallConcaveProblem();
  auto sol = MaximizePairwiseConcave(p);
  ASSERT_TRUE(sol.ok()) << sol.status();
  // Optimal: both put mass 1 on item 2: objective 0.3 + 0.3 + 1.0 = 1.6.
  EXPECT_NEAR(sol->objective, 1.6, 1e-6);
  EXPECT_NEAR(sol->x[2], 1.0, 1e-6);
  EXPECT_NEAR(sol->x[5], 1.0, 1e-6);
}

TEST(SubgradientTest, MatchesSimplexOnRandomInstances) {
  // The reduced concave objective equals the LP optimum; verify against an
  // explicit y-variable LP solved with the simplex.
  Rng rng(77);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 3, m = 4;
    const double k = 2.0;
    PairwiseConcaveProblem p;
    p.num_agents = n;
    p.num_items = m;
    p.k = k;
    p.linear.resize(n * m);
    for (double& v : p.linear) v = rng.Uniform(0, 1);
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        if (!rng.Bernoulli(0.8)) continue;
        ConcavePair pr;
        pr.a = a;
        pr.b = b;
        for (int c = 0; c < m; ++c) {
          if (rng.Bernoulli(0.7)) {
            pr.weights.emplace_back(c, rng.Uniform(0, 1));
          }
        }
        if (!pr.weights.empty()) p.pairs.push_back(pr);
      }
    }
    // Explicit LP.
    LpModel lp;
    std::vector<int> xv(n * m);
    for (int a = 0; a < n; ++a)
      for (int c = 0; c < m; ++c)
        xv[a * m + c] = lp.AddVariable(0, 1, p.linear[a * m + c]);
    for (int a = 0; a < n; ++a) {
      std::vector<LpTerm> terms;
      for (int c = 0; c < m; ++c) terms.push_back({xv[a * m + c], 1});
      lp.AddRow(RowType::kEqual, k, terms);
    }
    for (const auto& pr : p.pairs) {
      for (const auto& [c, w] : pr.weights) {
        int y = lp.AddVariable(0, 1, w);
        lp.AddRow(RowType::kLessEqual, 0, {{y, 1}, {xv[pr.a * m + c], -1}});
        lp.AddRow(RowType::kLessEqual, 0, {{y, 1}, {xv[pr.b * m + c], -1}});
      }
    }
    auto exact = SolveLp(lp);
    ASSERT_TRUE(exact.ok()) << exact.status();

    SubgradientOptions opt;
    opt.max_iterations = 400;
    opt.polish_sweeps = 8;
    auto approx = MaximizePairwiseConcave(p, opt);
    ASSERT_TRUE(approx.ok()) << approx.status();
    EXPECT_LE(approx->objective, exact->objective + 1e-6);
    EXPECT_GE(approx->objective, 0.93 * exact->objective);
  }
}

TEST(SubgradientTest, ExactBlockMaximizeIsOptimalForOneAgent) {
  // Single agent, no pairs: block maximization must pick the top-k items.
  PairwiseConcaveProblem p;
  p.num_agents = 1;
  p.num_items = 5;
  p.k = 2.0;
  p.linear = {0.1, 0.9, 0.4, 0.8, 0.2};
  std::vector<double> x(5, 0.4);
  std::vector<std::vector<int>> poa(1);
  double contrib = ExactBlockMaximize(p, 0, poa, &x);
  EXPECT_NEAR(contrib, 1.7, 1e-9);
  EXPECT_NEAR(x[1], 1.0, 1e-9);
  EXPECT_NEAR(x[3], 1.0, 1e-9);
}

TEST(SubgradientTest, RejectsBadInput) {
  PairwiseConcaveProblem p;
  p.num_agents = 0;
  EXPECT_FALSE(MaximizePairwiseConcave(p).ok());
  p.num_agents = 1;
  p.num_items = 2;
  p.k = 5.0;  // k > m
  p.linear = {0, 0};
  EXPECT_FALSE(MaximizePairwiseConcave(p).ok());
}

// --- Branch and bound -----------------------------------------------------

TEST(BranchAndBoundTest, SmallKnapsack) {
  // max 10a + 6b + 4c s.t. a + b + c <= 2 (binary) -> 16.
  LpModel m;
  int a = m.AddVariable(0, 1, 10);
  int b = m.AddVariable(0, 1, 6);
  int c = m.AddVariable(0, 1, 4);
  m.AddRow(RowType::kLessEqual, 2, {{a, 1}, {b, 1}, {c, 1}});
  auto sol = SolveMip(m, {a, b, c});
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_TRUE(sol->proven_optimal);
  EXPECT_NEAR(sol->objective, 16.0, 1e-7);
}

TEST(BranchAndBoundTest, FractionalLpIntegerGap) {
  // max x + y s.t. 2x + 2y <= 3, binary -> LP 1.5, IP 1.
  LpModel m;
  int x = m.AddVariable(0, 1, 1);
  int y = m.AddVariable(0, 1, 1);
  m.AddRow(RowType::kLessEqual, 3, {{x, 2}, {y, 2}});
  auto sol = SolveMip(m, {x, y});
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_NEAR(sol->objective, 1.0, 1e-7);
}

TEST(BranchAndBoundTest, EqualityWithIntegers) {
  // max 5x + 4y + 3z s.t. x + y + z = 2, z binary-ish bounds.
  LpModel m;
  int x = m.AddVariable(0, 1, 5);
  int y = m.AddVariable(0, 1, 4);
  int z = m.AddVariable(0, 1, 3);
  m.AddRow(RowType::kEqual, 2, {{x, 1}, {y, 1}, {z, 1}});
  auto sol = SolveMip(m, {x, y, z});
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_NEAR(sol->objective, 9.0, 1e-7);
}

TEST(BranchAndBoundTest, InfeasibleIntegerProblem) {
  // 0.4 <= x <= 0.6 with x integer: infeasible.
  LpModel m;
  int x = m.AddVariable(0.4, 0.6, 1);
  auto sol = SolveMip(m, {x});
  ASSERT_FALSE(sol.ok());
  EXPECT_EQ(sol.status().code(), StatusCode::kInfeasible);
}

TEST(BranchAndBoundTest, AllStrategiesAgreeOnOptimum) {
  Rng rng(99);
  for (int trial = 0; trial < 5; ++trial) {
    LpModel m;
    const int n = 8;
    std::vector<int> vars;
    std::vector<LpTerm> row;
    for (int i = 0; i < n; ++i) {
      int v = m.AddVariable(0, 1, rng.Uniform(1, 10));
      vars.push_back(v);
      row.push_back({v, rng.Uniform(1, 5)});
    }
    m.AddRow(RowType::kLessEqual, 8, row);
    double objs[3];
    int idx = 0;
    for (auto strat : {NodeSelection::kBestBound, NodeSelection::kDepthFirst,
                       NodeSelection::kHybrid}) {
      MipOptions opt;
      opt.node_selection = strat;
      auto sol = SolveMip(m, vars, opt);
      ASSERT_TRUE(sol.ok()) << sol.status();
      EXPECT_TRUE(sol->proven_optimal);
      objs[idx++] = sol->objective;
    }
    EXPECT_NEAR(objs[0], objs[1], 1e-6);
    EXPECT_NEAR(objs[0], objs[2], 1e-6);
  }
}

TEST(BranchAndBoundTest, HeuristicSeedsIncumbent) {
  LpModel m;
  int x = m.AddVariable(0, 1, 1);
  int y = m.AddVariable(0, 1, 1);
  m.AddRow(RowType::kLessEqual, 3, {{x, 2}, {y, 2}});
  MipOptions opt;
  bool called = false;
  opt.heuristic = [&](const std::vector<double>&)
      -> std::optional<std::vector<double>> {
    called = true;
    return std::vector<double>{1.0, 0.0};
  };
  auto sol = SolveMip(m, {x, y}, opt);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_TRUE(called);
  EXPECT_NEAR(sol->objective, 1.0, 1e-7);
}

TEST(BranchAndBoundTest, WarmStartedNodesMatchColdAndPivotLess) {
  Rng rng(31);
  int64_t warm_total = 0, cold_total = 0;
  for (int trial = 0; trial < 6; ++trial) {
    LpModel m;
    const int n = 12;
    std::vector<int> vars;
    std::vector<LpTerm> row;
    for (int i = 0; i < n; ++i) {
      int v = m.AddVariable(0, 1, rng.Uniform(1, 10));
      vars.push_back(v);
      row.push_back({v, rng.Uniform(1, 5)});
    }
    m.AddRow(RowType::kLessEqual, 9, row);
    MipOptions warm_opt;
    warm_opt.warm_start_nodes = true;
    MipOptions cold_opt;
    cold_opt.warm_start_nodes = false;
    auto warm = SolveMip(m, vars, warm_opt);
    auto cold = SolveMip(m, vars, cold_opt);
    ASSERT_TRUE(warm.ok()) << warm.status();
    ASSERT_TRUE(cold.ok()) << cold.status();
    EXPECT_TRUE(warm->proven_optimal);
    EXPECT_NEAR(warm->objective, cold->objective, 1e-7);
    warm_total += warm->simplex_iterations;
    cold_total += cold->simplex_iterations;
  }
  // Parent-basis reuse must pay for itself across the node LPs.
  EXPECT_LT(warm_total, cold_total);
}

TEST(BranchAndBoundTest, NodeLimitReturnsIncumbentUnproven) {
  // A problem with enough structure that the first dives find an incumbent
  // before the node limit bites.
  Rng rng(7);
  LpModel m;
  std::vector<int> vars;
  std::vector<LpTerm> row;
  for (int i = 0; i < 14; ++i) {
    int v = m.AddVariable(0, 1, rng.Uniform(1, 10));
    vars.push_back(v);
    row.push_back({v, rng.Uniform(1, 5)});
  }
  m.AddRow(RowType::kLessEqual, 10, row);
  MipOptions opt;
  opt.node_selection = NodeSelection::kDepthFirst;
  opt.max_nodes = 25;
  auto sol = SolveMip(m, vars, opt);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_FALSE(sol->proven_optimal);
  EXPECT_GE(sol->best_bound, sol->objective - 1e-9);
}


// --- Dual Devex row pricing ------------------------------------------------

TEST(DualDevexTest, MultiBoundRepairMatchesColdSolve) {
  // Heavier B&B-child-style repairs (several tightened bounds at once) on
  // always-feasible packing LPs: the dual Devex repair must land on the
  // cold optimum with KKT-valid duals.
  Rng rng(555);
  int64_t devex_total = 0;
  int repaired = 0;
  for (int trial = 0; trial < 30; ++trial) {
    LpModel m;
    const int num_vars = 60, num_rows = 30;
    for (int j = 0; j < num_vars; ++j) {
      m.AddVariable(0.0, 1.0 + rng.Uniform(0, 2), rng.Uniform(0.1, 3.0));
    }
    for (int i = 0; i < num_rows; ++i) {
      std::vector<LpTerm> terms;
      for (int j = 0; j < num_vars; ++j) {
        if (rng.Bernoulli(0.4)) terms.push_back({j, rng.Uniform(0.1, 2.0)});
      }
      if (terms.empty()) terms.push_back({0, 1.0});
      m.AddRow(RowType::kLessEqual, rng.Uniform(1.0, 0.3 * num_vars),
               std::move(terms));
    }
    auto parent = SolveLp(m);
    ASSERT_TRUE(parent.ok()) << parent.status();
    int changed = 0;
    for (int j = 0; j < m.num_vars() && changed < 6; ++j) {
      if (parent->x[j] > m.lower(j) + 0.25) {
        m.SetBounds(j, m.lower(j), parent->x[j] - 0.2);
        ++changed;
      }
    }
    if (changed == 0) continue;
    auto warm = SolveLp(m, {}, &parent->basis);
    auto cold = SolveLp(m);
    ASSERT_EQ(warm.ok(), cold.ok()) << "trial " << trial << ": warm "
                                    << warm.status() << " cold "
                                    << cold.status();
    if (!warm.ok()) continue;
    EXPECT_NEAR(warm->objective, cold->objective, 1e-6) << "trial " << trial;
    CheckDualKkt(m, *warm, 1e-6);
    if (warm->dual_simplex_used) {
      ++repaired;
      devex_total += warm->stats.dual_pivots;
    }
  }
  EXPECT_GT(repaired, 20);
  // Exact pin (the fixtures draw only Rng::Uniform and Bernoulli, so no
  // libm call can move it). The max-violation row rule this replaced took
  // 195 dual pivots over the same repairs.
  EXPECT_EQ(devex_total, 189);
}

// --- Eta kernels and adaptive refactorization ------------------------------

// Closes the open column of `cols`: the entries appended since the last
// close become column cols->num_cols().
void EndColumn(ColumnMatrix* cols) {
  cols->start.push_back(static_cast<int64_t>(cols->entries.size()));
}

TEST(EtaKernelTest, DenseAndSparseFlavorsAgreeBitwiseOverLongStream) {
  // The dense-scatter and zero-skipping kernel flavors perform the same
  // arithmetic on every nonzero, so over a long factorize/ftran/btran/
  // update stream every component must compare equal with == (signed
  // zeros may differ in representation; == treats them as equal, which is
  // exactly the guarantee callers rely on).
  Rng rng(9090);
  const int n = 24;
  const int pool = 3 * n;
  ColumnMatrix cols;
  for (int c = 0; c < pool; ++c) {
    const int diag = c % n;
    cols.entries.push_back({diag, 3.0 + rng.Uniform(0, 1)});
    for (int r = 0; r < n; ++r) {
      if (r != diag && rng.Bernoulli(0.2)) {
        cols.entries.push_back({r, rng.Uniform(-1, 1)});
      }
    }
    EndColumn(&cols);
  }
  LuKernelOptions always_dense;
  always_dense.dense_switch_density = 0.0;
  LuKernelOptions always_sparse;
  always_sparse.dense_switch_density = 2.0;
  auto fd = MakeLuFactorization(always_dense);
  auto fs = MakeLuFactorization(always_sparse);
  std::vector<int> basis(n);
  std::vector<char> in_basis(pool, 0);
  for (int i = 0; i < n; ++i) {
    basis[i] = i;
    in_basis[i] = 1;
  }
  ASSERT_TRUE(fd->Factorize(cols, basis).ok());
  ASSERT_TRUE(fs->Factorize(cols, basis).ok());
  int updates = 0;
  int64_t mismatches = 0;
  for (int step = 0; step < 2500; ++step) {
    const int enter = static_cast<int>(rng.UniformInt(pool));
    std::vector<double> wd(n, 0.0), ws(n, 0.0);
    for (const auto& [r, a] : cols[enter]) wd[r] = ws[r] = a;
    fd->Ftran(&wd);
    fs->Ftran(&ws);
    for (int i = 0; i < n; ++i) mismatches += wd[i] == ws[i] ? 0 : 1;
    std::vector<double> yd(n, 0.0), ys(n, 0.0);
    yd[step % n] = ys[step % n] = 1.0;
    fd->Btran(&yd);
    fs->Btran(&ys);
    for (int i = 0; i < n; ++i) mismatches += yd[i] == ys[i] ? 0 : 1;
    if (in_basis[enter]) continue;
    int piv = 0;
    for (int i = 1; i < n; ++i) {
      if (std::abs(wd[i]) > std::abs(wd[piv])) piv = i;
    }
    if (std::abs(wd[piv]) < 1e-6) continue;
    const Status ud = fd->Update(wd, piv);
    const Status us = fs->Update(ws, piv);
    ASSERT_EQ(ud.ok(), us.ok()) << "step " << step;
    if (!ud.ok() || fd->eta_count() >= 64) {
      ASSERT_TRUE(fd->Factorize(cols, basis).ok());
      ASSERT_TRUE(fs->Factorize(cols, basis).ok());
      if (!ud.ok()) continue;
    }
    if (ud.ok()) {
      in_basis[basis[piv]] = 0;
      in_basis[enter] = 1;
      basis[piv] = enter;
      ++updates;
    }
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(updates, 400);
}

TEST(LuFactorTest, LeftLookingPassIsLinearInNonzeros) {
  // A slack-heavy basis of the shape a large compact LP starts from:
  // 50k unit slack columns, with 300 of them replaced by structural
  // columns. A left-looking pass that probed every earlier pivot for each
  // column would make ~n^2/2 (over 10^9) visits; one that visits only the
  // pivots a column reaches stays within a small multiple of the basis
  // and factor nonzeros. The count is deterministic, unlike a timer.
  Rng rng(4242);
  const int n = 50000;
  const int structurals = 300;
  const int stride = n / structurals;
  ColumnMatrix cols;
  std::vector<int> basis(n);
  for (int r = 0; r < n; ++r) {
    basis[r] = cols.num_cols();
    cols.entries.push_back({r, 1.0});
    EndColumn(&cols);
  }
  for (int j = 0; j < structurals; ++j) {
    // The entry on its own row dominates the column: the basis is regular.
    const int diag = j * stride;
    const int64_t first = cols.start.back();
    cols.entries.push_back({diag, 8.0 + rng.Uniform(0, 1)});
    for (int t = 0; t < 6; ++t) {
      // Even terms land on other structurals' rows, so L and U carry real
      // fill; odd terms on any row.
      const int64_t draw = t % 2 == 0 ? structurals : n;
      int row = static_cast<int>(rng.UniformInt(draw));
      if (t % 2 == 0) row *= stride;
      bool dup = false;
      for (size_t e = first; e < cols.entries.size(); ++e) {
        dup = dup || cols.entries[e].row == row;
      }
      if (!dup) cols.entries.push_back({row, rng.Uniform(-1, 1)});
    }
    basis[diag] = cols.num_cols();
    EndColumn(&cols);
  }
  auto lu = MakeLuFactorization();
  ASSERT_TRUE(lu->Factorize(cols, basis).ok());
  int64_t basis_nonzeros = 0;
  for (int col : basis) basis_nonzeros += cols[col].size();
  const int64_t bound = 2 * (basis_nonzeros + lu->factor_nonzeros());
  EXPECT_GT(lu->factor_pivot_visits(), 0);
  EXPECT_LE(lu->factor_pivot_visits(), bound);
  // The factors still solve B x = b.
  std::vector<double> x(n), b(n, 0.0);
  for (int pos = 0; pos < n; ++pos) {
    x[pos] = rng.Uniform(-1, 1);
    for (const auto& [row, value] : cols[basis[pos]]) b[row] += value * x[pos];
  }
  lu->Ftran(&b);
  double max_err = 0.0;
  for (int pos = 0; pos < n; ++pos) {
    max_err = std::max(max_err, std::abs(b[pos] - x[pos]));
  }
  EXPECT_LT(max_err, 1e-9);
}

TEST(AdaptiveRefactorTest, BoundsEtaGrowthVersusFixedInterval) {
  // With the hard cap effectively disabled, the fixed-interval policy
  // lets the eta file grow with the pivot count while the adaptive
  // density/rent-or-buy triggers keep folding it back into the LU.
  Rng rng(31337);
  LpModel m;
  const int num_vars = 120, num_rows = 60;
  for (int j = 0; j < num_vars; ++j) {
    m.AddVariable(0.0, 1.0 + rng.Uniform(0, 2), rng.Uniform(0.1, 3.0));
  }
  for (int i = 0; i < num_rows; ++i) {
    std::vector<LpTerm> terms;
    for (int j = 0; j < num_vars; ++j) {
      if (rng.Bernoulli(0.3)) terms.push_back({j, rng.Uniform(0.1, 2.0)});
    }
    if (terms.empty()) terms.push_back({0, 1.0});
    m.AddRow(RowType::kLessEqual, rng.Uniform(2.0, 0.3 * num_vars),
             std::move(terms));
  }
  SimplexOptions fixed;
  fixed.refactor_policy = RefactorPolicy::kFixedInterval;
  fixed.refactor_interval = 1 << 30;
  SimplexOptions adaptive;
  adaptive.refactor_policy = RefactorPolicy::kAdaptive;
  adaptive.refactor_interval = 1 << 30;
  auto a = SolveLp(m, fixed);
  auto b = SolveLp(m, adaptive);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_NEAR(a->objective, b->objective, 1e-6);
  ASSERT_GT(b->iterations, 20);  // enough pivots for the policy to matter
  EXPECT_GT(b->stats.refactorizations, a->stats.refactorizations);
  // LpStats must surface the eta-file state (the small-fix satellite):
  // the unmanaged chain keeps every pivot's eta, the adaptive one stays
  // below the density bound.
  EXPECT_GT(a->stats.eta_count, 0);
  EXPECT_LT(b->stats.eta_count, a->stats.eta_count);
}

}  // namespace
}  // namespace savg
