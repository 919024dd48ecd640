#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/community.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/sampling.h"

namespace savg {
namespace {

TEST(GraphTest, AddAndFindEdges) {
  SocialGraph g(4);
  auto e = g.AddEdge(0, 1);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(*e, 0);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
  EXPECT_EQ(g.FindEdge(0, 1), 0);
  EXPECT_EQ(g.FindEdge(1, 0), -1);
}

TEST(GraphTest, RejectsSelfLoopsAndDuplicates) {
  SocialGraph g(3);
  EXPECT_FALSE(g.AddEdge(0, 0).ok());
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_EQ(g.AddEdge(0, 1).status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(g.AddEdge(0, 9).status().code(), StatusCode::kOutOfRange);
}

TEST(GraphTest, UndirectedEdgeAddsBothDirections) {
  SocialGraph g(3);
  ASSERT_TRUE(g.AddUndirectedEdge(0, 2).ok());
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_TRUE(g.HasEdge(2, 0));
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.NumUndirectedPairs(), 1);
}

TEST(GraphTest, DensityOfCompleteGraph) {
  SocialGraph g = CompleteGraph(5);
  EXPECT_DOUBLE_EQ(g.UndirectedDensity(), 1.0);
  EXPECT_EQ(g.NumUndirectedPairs(), 10);
}

TEST(GraphTest, InducedSubgraph) {
  SocialGraph g(5);
  ASSERT_TRUE(g.AddUndirectedEdge(0, 1).ok());
  ASSERT_TRUE(g.AddUndirectedEdge(1, 2).ok());
  ASSERT_TRUE(g.AddUndirectedEdge(3, 4).ok());
  std::vector<UserId> keep = {0, 1, 3};
  std::vector<UserId> mapping;
  SocialGraph sub = g.InducedSubgraph(keep, &mapping);
  EXPECT_EQ(sub.num_vertices(), 3);
  EXPECT_EQ(sub.NumUndirectedPairs(), 1);  // only (0,1) survives
  EXPECT_EQ(mapping[0], 0);
  EXPECT_EQ(mapping[1], 1);
  EXPECT_EQ(mapping[2], -1);
  EXPECT_EQ(mapping[3], 2);
}

TEST(GraphTest, EgoNetworkHops) {
  // Path 0-1-2-3-4.
  SocialGraph g(5);
  for (int i = 0; i + 1 < 5; ++i) {
    ASSERT_TRUE(g.AddUndirectedEdge(i, i + 1).ok());
  }
  auto ego1 = g.EgoNetwork(2, 1);
  EXPECT_EQ(ego1, (std::vector<UserId>{1, 2, 3}));
  auto ego2 = g.EgoNetwork(0, 2);
  EXPECT_EQ(ego2, (std::vector<UserId>{0, 1, 2}));
}

TEST(GraphTest, CountInducedPairs) {
  SocialGraph g = CompleteGraph(4);
  EXPECT_EQ(g.CountInducedPairs({0, 1, 2}), 3);
  EXPECT_EQ(g.CountInducedPairs({0}), 0);
}

TEST(GeneratorsTest, ErdosRenyiDensityApproximatesP) {
  Rng rng(5);
  SocialGraph g = ErdosRenyi(60, 0.3, &rng);
  EXPECT_NEAR(g.UndirectedDensity(), 0.3, 0.08);
}

TEST(GeneratorsTest, ErdosRenyiExtremes) {
  Rng rng(5);
  EXPECT_EQ(ErdosRenyi(10, 0.0, &rng).num_edges(), 0);
  EXPECT_EQ(ErdosRenyi(10, 1.0, &rng).NumUndirectedPairs(), 45);
}

TEST(GeneratorsTest, WattsStrogatzDegreeRoughlyPreserved) {
  Rng rng(7);
  SocialGraph g = WattsStrogatz(40, 3, 0.1, &rng);
  // Ring lattice would have exactly 3*40 undirected edges; rewiring keeps
  // the count within a small slack (some rewires collide and are skipped).
  EXPECT_GE(g.NumUndirectedPairs(), 100);
  EXPECT_LE(g.NumUndirectedPairs(), 120);
}

TEST(GeneratorsTest, BarabasiAlbertHubsEmerge) {
  Rng rng(9);
  SocialGraph g = BarabasiAlbert(200, 2, &rng);
  int max_deg = 0;
  double total_deg = 0;
  for (int u = 0; u < g.num_vertices(); ++u) {
    max_deg = std::max(max_deg, g.OutDegree(u));
    total_deg += g.OutDegree(u);
  }
  const double avg_deg = total_deg / g.num_vertices();
  EXPECT_GT(max_deg, 3 * avg_deg);  // heavy tail
}

TEST(GeneratorsTest, PlantedPartitionHasCommunityStructure) {
  Rng rng(11);
  std::vector<int> blocks;
  SocialGraph g = PlantedPartition(60, 3, 0.5, 0.02, &rng, &blocks);
  ASSERT_EQ(blocks.size(), 60u);
  int intra = 0, inter = 0;
  for (const Edge& e : g.edges()) {
    if (e.u < e.v) {
      (blocks[e.u] == blocks[e.v] ? intra : inter)++;
    }
  }
  EXPECT_GT(intra, 5 * inter);
}

TEST(SamplingTest, RandomWalkSampleSizeAndDistinct) {
  Rng rng(13);
  SocialGraph g = ErdosRenyi(100, 0.1, &rng);
  auto sample = RandomWalkSample(g, 30, 0.15, &rng);
  ASSERT_EQ(sample.size(), 30u);
  std::set<UserId> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq.size(), 30u);
}

TEST(SamplingTest, RandomWalkHandlesIsolatedVertices) {
  Rng rng(13);
  SocialGraph g(10);  // no edges at all
  auto sample = RandomWalkSample(g, 5, 0.15, &rng);
  EXPECT_EQ(sample.size(), 5u);
}

TEST(SamplingTest, UniformSampleClampsToN) {
  Rng rng(13);
  SocialGraph g(5);
  EXPECT_EQ(UniformVertexSample(g, 50, &rng).size(), 5u);
}

TEST(CommunityTest, LabelPropagationSeparatesCliques) {
  // Two 6-cliques joined by one edge.
  SocialGraph g(12);
  for (int a = 0; a < 6; ++a)
    for (int b = a + 1; b < 6; ++b)
      ASSERT_TRUE(g.AddUndirectedEdge(a, b).ok());
  for (int a = 6; a < 12; ++a)
    for (int b = a + 1; b < 12; ++b)
      ASSERT_TRUE(g.AddUndirectedEdge(a, b).ok());
  ASSERT_TRUE(g.AddUndirectedEdge(0, 6).ok());
  Rng rng(17);
  Partition p = LabelPropagation(g, 20, &rng);
  EXPECT_EQ(p.num_communities, 2);
  for (int u = 1; u < 6; ++u) EXPECT_EQ(p.community[u], p.community[0]);
  for (int u = 7; u < 12; ++u) EXPECT_EQ(p.community[u], p.community[6]);
}

TEST(CommunityTest, GreedyModularitySeparatesCliques) {
  SocialGraph g(10);
  for (int a = 0; a < 5; ++a)
    for (int b = a + 1; b < 5; ++b)
      ASSERT_TRUE(g.AddUndirectedEdge(a, b).ok());
  for (int a = 5; a < 10; ++a)
    for (int b = a + 1; b < 10; ++b)
      ASSERT_TRUE(g.AddUndirectedEdge(a, b).ok());
  ASSERT_TRUE(g.AddUndirectedEdge(4, 5).ok());
  Partition p = GreedyModularity(g);
  EXPECT_EQ(p.num_communities, 2);
  EXPECT_GT(Modularity(g, p), 0.3);
}

TEST(CommunityTest, ModularityOfSingletonPartitionIsNegative) {
  SocialGraph g = CompleteGraph(4);
  Partition p;
  p.community = {0, 1, 2, 3};
  p.num_communities = 4;
  EXPECT_LT(Modularity(g, p), 0.0);
}

TEST(CommunityTest, BalancedPartitionRespectsMaxSize) {
  Rng rng(23);
  SocialGraph g = ErdosRenyi(23, 0.2, &rng);
  Partition p = BalancedPartition(g, 5, &rng);
  auto groups = p.Groups();
  ASSERT_EQ(groups.size(), 5u);  // ceil(23/5)
  for (const auto& grp : groups) EXPECT_LE(grp.size(), 5u);
  size_t total = 0;
  for (const auto& grp : groups) total += grp.size();
  EXPECT_EQ(total, 23u);
}

TEST(CommunityTest, NormalizeCompactsIds) {
  Partition p;
  p.community = {7, 7, 3, 9};
  p.num_communities = 10;
  Normalize(&p);
  EXPECT_EQ(p.num_communities, 3);
  EXPECT_EQ(p.community[0], p.community[1]);
  EXPECT_NE(p.community[0], p.community[2]);
}

}  // namespace
}  // namespace savg
