// Figure 5: total SAVG utility vs user-set size n on large Timik instances
// (paper defaults m = 10000, k = 50; IP omitted — it cannot finish).
//
// Expected shapes: AVG/AVG-D above every baseline with the margin growing
// in n (social interactions matter more in larger groups); AVG-D slightly
// above AVG.

#include "bench_util.h"

namespace savg {
namespace {

SolverOptions LargeConfig() {
  SolverOptions c;
  c.relaxation.method = RelaxationMethod::kSubgradient;
  c.avg_repeats = 3;
  c.sdp.diversity_weight = 0.0;  // O(m k^2 n) similarity pass is hopeless
  return c;
}

void PrintTables() {
  std::vector<benchutil::SweepPoint> points;
  for (int n : {25, 50, 75, 100, 125}) {
    DatasetParams p;
    p.kind = DatasetKind::kTimik;
    p.num_users = n;
    p.num_items = 10000;
    p.num_slots = 50;
    p.seed = 5;
    points.push_back({std::to_string(n), p});
  }
  std::vector<std::string> algos = PaperComparisonSolvers(false);
  algos.insert(algos.begin() + 2, "AVG+LS");  // AVG + local search
  benchutil::PrintSweep("Fig 5: large Timik (m=10000, k=50)", "n", points,
                        /*samples=*/2, benchutil::AlgosOrDefault(algos),
                        LargeConfig());
}

void BM_LargeRelaxation(benchmark::State& state) {
  DatasetParams p;
  p.kind = DatasetKind::kTimik;
  p.num_users = static_cast<int>(state.range(0));
  p.num_items = 10000;
  p.num_slots = 50;
  p.seed = 5;
  auto inst = GenerateDataset(p);
  RelaxationOptions opt;
  opt.method = RelaxationMethod::kSubgradient;
  for (auto _ : state) {
    auto frac = SolveRelaxation(*inst, opt);
    benchmark::DoNotOptimize(frac);
  }
}
BENCHMARK(BM_LargeRelaxation)->Arg(25)->Arg(125)->Unit(benchmark::kSecond)
    ->Iterations(1);

void BM_LargeAvgDRounding(benchmark::State& state) {
  DatasetParams p;
  p.kind = DatasetKind::kTimik;
  p.num_users = 125;
  p.num_items = 10000;
  p.num_slots = 50;
  p.seed = 5;
  auto inst = GenerateDataset(p);
  RelaxationOptions opt;
  opt.method = RelaxationMethod::kSubgradient;
  auto frac = SolveRelaxation(*inst, opt);
  for (auto _ : state) {
    auto result = RunAvgD(*inst, *frac);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_LargeAvgDRounding)->Unit(benchmark::kSecond)->Iterations(1);

}  // namespace
}  // namespace savg

SAVG_BENCH_MAIN(savg::PrintTables)
