#include "solvers/solver_registry.h"

#include <gtest/gtest.h>

#include "datagen/datasets.h"
#include "solvers/solver_options.h"

namespace savg {
namespace {

TEST(SolverRegistryTest, AllSeedAlgorithmsResolvableByName) {
  const std::vector<std::string> names = {
      "AVG", "AVG-D", "AVG+LS", "AVG-ST", "PER",  "FMG",
      "SDP", "GRF",   "IP",     "BRUTE",  "IR"};
  for (const std::string& name : names) {
    auto solver = SolverRegistry::Global().Find(name);
    ASSERT_TRUE(solver.ok()) << name << ": " << solver.status();
    EXPECT_EQ((*solver)->Name(), name);
  }
}

TEST(SolverRegistryTest, LookupIsCaseInsensitiveAndAliased) {
  const SolverRegistry& registry = SolverRegistry::Global();
  for (const char* name :
       {"avg", "Avg", "AVG", "avg-d", "avg+ls", "avg-ls", "ip-exact", "bf",
        "brute-force", "independent-rounding"}) {
    EXPECT_TRUE(registry.Find(name).ok()) << name;
  }
  // Aliases resolve to the same singleton as the canonical name.
  auto canonical = registry.Find("AVG+LS");
  auto alias = registry.Find("avg-ls");
  ASSERT_TRUE(canonical.ok() && alias.ok());
  EXPECT_EQ(*canonical, *alias);
}

TEST(SolverRegistryTest, UnknownNameIsNotFoundError) {
  auto solver = SolverRegistry::Global().Find("no-such-solver");
  ASSERT_FALSE(solver.ok());
  EXPECT_EQ(solver.status().code(), StatusCode::kNotFound);
  // The message lists the known names to make typos debuggable.
  EXPECT_NE(solver.status().message().find("AVG-D"), std::string::npos);
}

TEST(SolverRegistryTest, NamesListsCanonicalNames) {
  const std::vector<std::string> names = SolverRegistry::Global().Names();
  EXPECT_GE(names.size(), 10u);
  // Aliases must not show up, and no alias may shadow a canonical name:
  // each name resolves to the solver of that name.
  for (const std::string& name : names) {
    EXPECT_NE(name, "avg-ls");
    EXPECT_NE(name, "bf");
    auto solver = SolverRegistry::Global().Find(name);
    ASSERT_TRUE(solver.ok()) << name;
    EXPECT_EQ((*solver)->Name(), name);
  }
}

TEST(SolverRegistryTest, SolveThroughRegistryMatchesEnumShim) {
  DatasetParams params;
  params.num_users = 6;
  params.num_items = 8;
  params.num_slots = 2;
  params.seed = 5;
  auto inst = GenerateDataset(params);
  ASSERT_TRUE(inst.ok());
  SolverOptions options;
  for (const char* name : {"AVG-D", "PER", "FMG"}) {
    auto solver = SolverRegistry::Global().Find(name);
    ASSERT_TRUE(solver.ok());
    SolverContext context;
    context.options = &options;
    auto run = (*solver)->Solve(*inst, context);
    ASSERT_TRUE(run.ok()) << name << ": " << run.status();
    EXPECT_EQ(run->solver, name);
    EXPECT_TRUE(run->config.CheckValid().ok()) << name;
    EXPECT_GT(run->scaled_total, 0.0) << name;
  }
}

}  // namespace
}  // namespace savg
