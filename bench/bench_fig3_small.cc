// Figure 3: comparisons on small datasets (Timik random-walk samples)
// against the exact IP — utility and execution time vs the size of the
// user set n (a, b), the item set m (c, d), and the slot count k (e, f).
//
// Expected shapes: AVG/AVG-D close to IP; baselines below; IP time blowing
// up fastest in n and k; utility insensitive to m (top items already in a
// small pool).

#include "bench_util.h"

namespace savg {
namespace {

using benchutil::PrintSweep;
using benchutil::SweepPoint;

DatasetParams Base() {
  DatasetParams p;
  p.kind = DatasetKind::kTimik;
  p.num_users = 6;
  p.num_items = 20;
  p.num_slots = 3;
  p.seed = 2020;
  return p;
}

SolverOptions Config() {
  SolverOptions c;
  c.avg_repeats = 5;
  c.ip.mip.max_nodes = 200000;
  c.ip.mip.time_limit_seconds = 20.0;
  return c;
}

void PrintTables() {
  const int kSamples = 3;
  {
    std::vector<SweepPoint> points;
    for (int n : {4, 6, 8, 10, 12}) {
      DatasetParams p = Base();
      p.num_users = n;
      points.push_back({std::to_string(n), p});
    }
    PrintSweep("Fig 3(a,b): vs user-set size n (m=20, k=3)", "n", points,
               kSamples, benchutil::AlgosOrDefault(true), Config());
  }
  {
    std::vector<SweepPoint> points;
    for (int m : {10, 20, 40, 80}) {
      DatasetParams p = Base();
      p.num_items = m;
      points.push_back({std::to_string(m), p});
    }
    PrintSweep("Fig 3(c,d): vs item-set size m (n=6, k=3)", "m", points,
               kSamples, benchutil::AlgosOrDefault(true), Config());
  }
  {
    std::vector<SweepPoint> points;
    for (int k : {2, 3, 4, 6}) {
      DatasetParams p = Base();
      p.num_slots = k;
      points.push_back({std::to_string(k), p});
    }
    PrintSweep("Fig 3(e,f): vs slot count k (n=6, m=20)", "k", points,
               kSamples, benchutil::AlgosOrDefault(true), Config());
  }
}

void BM_IpExactSmall(benchmark::State& state) {
  DatasetParams p = Base();
  p.num_users = static_cast<int>(state.range(0));
  auto inst = GenerateDataset(p);
  SolverOptions config = Config();
  for (auto _ : state) {
    auto run = RunAlgorithm(*inst, "IP", config);
    benchmark::DoNotOptimize(run);
  }
}
BENCHMARK(BM_IpExactSmall)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);

void BM_AvgDSmall(benchmark::State& state) {
  DatasetParams p = Base();
  p.num_users = static_cast<int>(state.range(0));
  auto inst = GenerateDataset(p);
  SolverOptions config = Config();
  for (auto _ : state) {
    auto run = RunAlgorithm(*inst, "AVG-D", config);
    benchmark::DoNotOptimize(run);
  }
}
BENCHMARK(BM_AvgDSmall)
    ->Arg(4)
    ->Arg(8)
    ->Arg(12)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace savg

SAVG_BENCH_MAIN(savg::PrintTables)
