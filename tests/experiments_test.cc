#include <gtest/gtest.h>

#include "experiments/runner.h"
#include "solvers/solver_registry.h"

namespace savg {
namespace {

TEST(RunnerTest, PaperComparisonSolversAreCanonicalRegistryNames) {
  const std::vector<std::string> names = PaperComparisonSolvers(true);
  ASSERT_EQ(names.size(), 7u);
  EXPECT_EQ(PaperComparisonSolvers(false).size(), 6u);
  EXPECT_EQ(names.front(), "AVG");
  EXPECT_EQ(names.back(), "IP");
  for (const std::string& name : names) {
    auto solver = SolverRegistry::Global().Find(name);
    ASSERT_TRUE(solver.ok()) << name;
    EXPECT_EQ((*solver)->Name(), name);
  }
}

TEST(RunnerTest, RunAlgorithmAllKindsOnSmallInstance) {
  DatasetParams params;
  params.kind = DatasetKind::kTimik;
  params.num_users = 6;
  params.num_items = 8;
  params.num_slots = 2;
  params.seed = 3;
  auto inst = GenerateDataset(params);
  ASSERT_TRUE(inst.ok());
  SolverOptions config;
  config.ip.mip.max_nodes = 2000;
  for (const std::string& algo : PaperComparisonSolvers(true)) {
    auto run = RunAlgorithm(*inst, algo, config);
    ASSERT_TRUE(run.ok()) << algo << ": " << run.status();
    EXPECT_EQ(run->solver, algo);
    EXPECT_TRUE(run->config.CheckValid().ok()) << algo;
    EXPECT_GT(run->scaled_total, 0.0) << algo;
  }
}

TEST(RunnerTest, ComparisonAggregatesAndOrders) {
  DatasetParams params;
  params.kind = DatasetKind::kYelp;
  params.num_users = 14;
  params.num_items = 40;
  params.num_slots = 4;
  params.seed = 11;
  SolverOptions config;
  const std::vector<std::string> solvers = PaperComparisonSolvers(false);
  auto rows = RunComparison(params, /*samples=*/3, solvers, config);
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 6u);
  double avg_value = 0.0, best_baseline = 0.0;
  for (const AggregateRow& row : *rows) {
    EXPECT_GT(row.mean_scaled_total, 0.0) << row.name;
    EXPECT_GE(row.mean_seconds, 0.0);
    EXPECT_FALSE(row.regret_samples.empty());
    if (row.name == "AVG" || row.name == "AVG-D") {
      avg_value = std::max(avg_value, row.mean_scaled_total);
    } else {
      best_baseline = std::max(best_baseline, row.mean_scaled_total);
    }
  }
  // The paper's headline: AVG/AVG-D beat every baseline.
  EXPECT_GT(avg_value, best_baseline);
}

TEST(RunnerTest, SharedFractionalSolutionReused) {
  DatasetParams params;
  params.num_users = 8;
  params.num_items = 10;
  params.num_slots = 3;
  params.seed = 21;
  auto inst = GenerateDataset(params);
  ASSERT_TRUE(inst.ok());
  auto frac = SolveRelaxation(*inst);
  ASSERT_TRUE(frac.ok());
  SolverOptions config;
  auto with_shared = RunAlgorithm(*inst, "AVG-D", config, &*frac);
  auto without = RunAlgorithm(*inst, "AVG-D", config);
  ASSERT_TRUE(with_shared.ok() && without.ok());
  // AVG-D is deterministic: same configuration either way.
  EXPECT_NEAR(with_shared->scaled_total, without->scaled_total, 1e-9);
}

}  // namespace
}  // namespace savg
