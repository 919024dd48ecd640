// Figure 9(a): exact-solver configurations under time budgets. The paper
// runs Gurobi's IP-Primal / IP-Dual / IP-Concurrent / IP-DC / IP-Barrier
// with budgets of 200x / 1000x / 5000x the AVG-D runtime; here the
// branch-and-bound node-selection strategies (best-bound / depth-first /
// hybrid) play that role (DESIGN.md documents the substitution).
//
// Expected shape: no exact configuration beats AVG-D's solution within any
// of the budgets (values <= 1.0 in the normalized table, reaching 1.0 only
// when the budget suffices to match it).

#include "bench_util.h"

#include "lp/branch_and_bound.h"
#include "util/logging.h"

namespace savg {
namespace {

void PrintTables() {
  DatasetParams params;
  params.kind = DatasetKind::kTimik;
  params.num_users = 9;
  params.num_items = 14;
  params.num_slots = 4;
  params.seed = 9;
  auto inst = GenerateDataset(params);
  if (!inst.ok()) {
    std::cerr << inst.status() << "\n";
    return;
  }
  // AVG-D reference (time + value).
  Timer timer;
  auto frac = SolveRelaxation(*inst);
  auto avg_d = RunAvgD(*inst, *frac);
  const double avg_d_seconds = std::max(1e-4, timer.ElapsedSeconds());
  const double avg_d_value = Evaluate(*inst, avg_d->config).ScaledTotal();
  std::printf("AVG-D: value %.3f in %.4fs\n", avg_d_value, avg_d_seconds);

  struct Variant {
    const char* name;
    NodeSelection strategy;
  };
  const Variant variants[] = {
      {"IP-BestBound", NodeSelection::kBestBound},
      {"IP-DepthFirst", NodeSelection::kDepthFirst},
      {"IP-Hybrid", NodeSelection::kHybrid},
  };
  Table t({"variant", "200x", "1000x", "5000x"});
  for (const Variant& variant : variants) {
    t.NewRow().Add(variant.name);
    for (double budget : {200.0, 1000.0, 5000.0}) {
      SolverOptions config;
      config.ip.mip.node_selection = variant.strategy;
      config.ip.mip.time_limit_seconds = budget * avg_d_seconds;
      config.ip.seed_with_avg_d = false;  // measure the tree search itself
      auto run = RunAlgorithm(*inst, "IP", config);
      t.Add(run.ok() ? benchutil::Ratio(run->scaled_total, avg_d_value)
                     : "-");
    }
  }
  t.Print(
      "Fig 9(a): exact-solver value normalized by AVG-D, per time budget");
  std::printf(
      "('-' = the tree search produced no incumbent within the budget; no "
      "variant exceeds 1.000.)\n");
}

void BM_MipStrategies(benchmark::State& state) {
  DatasetParams params;
  params.kind = DatasetKind::kTimik;
  params.num_users = 6;
  params.num_items = 10;
  params.num_slots = 3;
  params.seed = 9;
  auto inst = GenerateDataset(params);
  SolverOptions config;
  config.ip.mip.node_selection =
      static_cast<NodeSelection>(state.range(0));
  config.ip.mip.time_limit_seconds = 10.0;
  for (auto _ : state) {
    auto run = RunAlgorithm(*inst, "IP", config);
    benchmark::DoNotOptimize(run);
  }
}
BENCHMARK(BM_MipStrategies)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace savg

SAVG_BENCH_MAIN(savg::PrintTables)
