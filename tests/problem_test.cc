#include <gtest/gtest.h>

#include <limits>

#include "core/configuration.h"
#include "core/problem.h"
#include "graph/generators.h"
#include "paper_example.h"

namespace savg {
namespace {

TEST(ProblemTest, ValidateCatchesBadDimensions) {
  SvgicInstance inst(SocialGraph(2), /*num_items=*/2, /*num_slots=*/3, 0.5);
  inst.FinalizePairs();
  // k > m makes no-duplication unsatisfiable.
  EXPECT_EQ(inst.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(ProblemTest, ValidateCatchesBadLambda) {
  SvgicInstance inst(SocialGraph(2), 3, 2, 1.5);
  inst.FinalizePairs();
  EXPECT_FALSE(inst.Validate().ok());
}

TEST(ProblemTest, ValidateCatchesNegativePreference) {
  SvgicInstance inst(SocialGraph(2), 3, 2, 0.5);
  inst.set_p(0, 0, -0.5);
  inst.FinalizePairs();
  EXPECT_FALSE(inst.Validate().ok());
}

TEST(ProblemTest, ValidateRefusesNonFiniteValuesAndNanLambda) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // p is stored as a float: a finite double above FLT_MAX becomes +inf.
  for (double p : {nan, inf, 1e39}) {
    SvgicInstance inst(SocialGraph(2), 3, 2, 0.5);
    inst.set_p(0, 0, p);
    inst.FinalizePairs();
    EXPECT_EQ(inst.Validate().code(), StatusCode::kInvalidArgument) << p;
  }
  for (double tau : {nan, inf, 1e39}) {
    SocialGraph g(2);
    const EdgeId uv = *g.AddEdge(0, 1);
    SvgicInstance inst(g, 3, 2, 0.5);
    inst.set_tau(uv, 1, tau);
    inst.FinalizePairs();
    EXPECT_EQ(inst.Validate().code(), StatusCode::kInvalidArgument) << tau;
  }
  for (double lambda : {nan, -inf, inf, -0.1, 1e-310}) {
    SvgicInstance inst(SocialGraph(2), 3, 2, lambda);
    inst.FinalizePairs();
    EXPECT_EQ(inst.Validate().code(), StatusCode::kInvalidArgument)
        << lambda;
  }
  // A finite lambda whose scale lets float utilities sum past DBL_MAX is
  // refused whatever the utilities are now, since any may change later.
  SvgicInstance scaled(SocialGraph(2), 3, 2, 1e-300);
  scaled.set_p(0, 0, 3e38);
  scaled.FinalizePairs();
  EXPECT_EQ(scaled.Validate().code(), StatusCode::kInvalidArgument);
  scaled.set_p(0, 0, 1.0);
  EXPECT_EQ(scaled.Validate().code(), StatusCode::kInvalidArgument);
  // At the smallest accepted lambda, every utility at FLT_MAX still sums
  // finitely.
  scaled.set_lambda(0x1p-832);
  for (UserId u = 0; u < 2; ++u) {
    for (ItemId c = 0; c < 3; ++c) {
      scaled.set_p(u, c, std::numeric_limits<float>::max());
    }
  }
  EXPECT_TRUE(scaled.Validate().ok());
  EXPECT_FALSE(SvgicInstance::ScalesFinitely(
      std::nextafter(0x1p-832, 0.0)));
}

TEST(ProblemTest, ValidateRequiresFinalize) {
  SocialGraph g(2);
  ASSERT_TRUE(g.AddUndirectedEdge(0, 1).ok());
  SvgicInstance inst(g, 3, 2, 0.5);
  inst.set_tau(0, 1, 0.3);
  EXPECT_FALSE(inst.Validate().ok());
  inst.FinalizePairs();
  EXPECT_TRUE(inst.Validate().ok());
}

TEST(ProblemTest, PairsMergeBothDirections) {
  SocialGraph g(2);
  const EdgeId uv = *g.AddEdge(0, 1);
  const EdgeId vu = *g.AddEdge(1, 0);
  SvgicInstance inst(g, 4, 2, 0.5);
  inst.set_tau(uv, 2, 0.3);
  inst.set_tau(vu, 2, 0.2);
  inst.set_tau(uv, 0, 0.1);
  inst.FinalizePairs();
  ASSERT_EQ(inst.pairs().size(), 1u);
  const FriendPair& pair = inst.pairs()[0];
  EXPECT_EQ(pair.u, 0);
  EXPECT_EQ(pair.v, 1);
  EXPECT_NEAR(pair.WeightOf(2), 0.5, 1e-6);
  EXPECT_NEAR(pair.WeightOf(0), 0.1, 1e-6);
  EXPECT_NEAR(pair.WeightOf(3), 0.0, 1e-6);
}

TEST(ProblemTest, OneDirectionalEdgeStillFormsPair) {
  SocialGraph g(2);
  const EdgeId uv = *g.AddEdge(0, 1);  // no reverse edge
  SvgicInstance inst(g, 3, 1, 0.5);
  inst.set_tau(uv, 1, 0.7);
  inst.FinalizePairs();
  ASSERT_EQ(inst.pairs().size(), 1u);
  EXPECT_EQ(inst.pairs()[0].vu, -1);
  EXPECT_NEAR(inst.pairs()[0].WeightOf(1), 0.7, 1e-6);
}

TEST(ProblemTest, DuplicateTauEntriesAreSummed) {
  SocialGraph g(2);
  const EdgeId uv = *g.AddEdge(0, 1);
  SvgicInstance inst(g, 3, 1, 0.5);
  inst.set_tau(uv, 1, 0.2);
  inst.set_tau(uv, 1, 0.3);
  inst.FinalizePairs();
  EXPECT_NEAR(inst.TauOf(uv, 1), 0.5, 1e-6);
}

TEST(ProblemTest, ScaledPreferenceMatchesFormula) {
  SvgicInstance inst = MakePaperExample(0.25);
  // p'(u,c) = (1-lambda)/lambda p = 3 p.
  EXPECT_NEAR(inst.ScaledP(kAlice, 0), 3.0 * 0.8, 1e-5);
}

TEST(ProblemTest, PairsOfUserIndexIsConsistent) {
  SvgicInstance inst = MakePaperExample(0.5);
  // Alice participates in pairs with B, C, D.
  EXPECT_EQ(inst.PairsOfUser(kAlice).size(), 3u);
  EXPECT_EQ(inst.PairsOfUser(kBob).size(), 2u);
  EXPECT_EQ(inst.PairsOfUser(kDave).size(), 1u);
  for (int pi : inst.PairsOfUser(kCharlie)) {
    const FriendPair& pair = inst.pairs()[pi];
    EXPECT_TRUE(pair.u == kCharlie || pair.v == kCharlie);
  }
}

TEST(ConfigurationTest, SetEnforcesNoDuplication) {
  Configuration config(2, 3, 5);
  ASSERT_TRUE(config.Set(0, 0, 2).ok());
  EXPECT_EQ(config.Set(0, 1, 2).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(config.Set(0, 1, 3).ok());
}

TEST(ConfigurationTest, SetRejectsOccupiedUnit) {
  Configuration config(1, 2, 3);
  ASSERT_TRUE(config.Set(0, 0, 1).ok());
  EXPECT_EQ(config.Set(0, 0, 2).code(), StatusCode::kAlreadyExists);
}

TEST(ConfigurationTest, UnsetRestoresEligibility) {
  Configuration config(1, 2, 3);
  ASSERT_TRUE(config.Set(0, 0, 1).ok());
  config.Unset(0, 0);
  EXPECT_EQ(config.At(0, 0), kNoItem);
  EXPECT_FALSE(config.Displays(0, 1));
  EXPECT_TRUE(config.Set(0, 1, 1).ok());
  EXPECT_EQ(config.NumUnassigned(), 1);
}

TEST(ConfigurationTest, CoDisplayQueries) {
  Configuration config(3, 2, 4);
  ASSERT_TRUE(config.Set(0, 0, 2).ok());
  ASSERT_TRUE(config.Set(1, 0, 2).ok());
  ASSERT_TRUE(config.Set(2, 1, 2).ok());
  EXPECT_TRUE(config.CoDisplayedAt(0, 1, 2, 0));
  EXPECT_TRUE(config.CoDisplayed(0, 1, 2));
  EXPECT_FALSE(config.CoDisplayed(0, 2, 2));
  EXPECT_TRUE(config.IndirectlyCoDisplayed(0, 2, 2));
  EXPECT_FALSE(config.IndirectlyCoDisplayed(0, 1, 2));
}

TEST(ConfigurationTest, GroupsAtSlot) {
  Configuration config(4, 1, 3);
  ASSERT_TRUE(config.Set(0, 0, 1).ok());
  ASSERT_TRUE(config.Set(1, 0, 1).ok());
  ASSERT_TRUE(config.Set(2, 0, 0).ok());
  // User 3 unassigned.
  auto groups = config.GroupsAtSlot(0);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].item, 0);
  EXPECT_EQ(groups[0].members, (std::vector<UserId>{2}));
  EXPECT_EQ(groups[1].item, 1);
  EXPECT_EQ(groups[1].members, (std::vector<UserId>{0, 1}));
}

TEST(ConfigurationTest, CheckValidDetectsIncomplete) {
  Configuration config(1, 2, 3);
  ASSERT_TRUE(config.Set(0, 0, 1).ok());
  EXPECT_FALSE(config.CheckValid().ok());
  ASSERT_TRUE(config.Set(0, 1, 2).ok());
  EXPECT_TRUE(config.CheckValid().ok());
}

}  // namespace
}  // namespace savg
