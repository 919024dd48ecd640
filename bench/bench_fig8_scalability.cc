// Figure 8: execution-time scalability on Yelp-like data — (a) vs the user
// set size n with the exact IP included under a hard time cap, and (b) vs
// the item set size m for the polynomial methods.
//
// Expected shapes: IP blows through its budget well before n = 25; AVG and
// AVG-D scale mildly in both n and m (decision dilution: only supporters
// are ever touched), baselines scan all items/users per step.

#include "bench_util.h"

namespace savg {
namespace {

void PrintTables() {
  // (a) time vs n, IP capped at 15 s.
  {
    Timer part_a_timer;
    Table t({"n", "AVG", "AVG-D", "PER", "FMG", "SDP", "GRF",
             "IP (cap 15s)", "IP optimal?"});
    for (int n : {5, 10, 15, 20, 25}) {
      DatasetParams params;
      params.kind = DatasetKind::kYelp;
      params.num_users = n;
      params.num_items = 12;
      params.num_slots = 3;
      params.seed = 8;
      auto inst = GenerateDataset(params);
      if (!inst.ok()) continue;
      SolverOptions config;
      config.ip.mip.time_limit_seconds = 15.0;
      t.NewRow().Add(std::to_string(n));
      auto frac = SolveRelaxation(*inst, config.relaxation);
      for (const std::string& algo : PaperComparisonSolvers(false)) {
        auto run = RunAlgorithm(*inst, algo, config,
                                frac.ok() ? &*frac : nullptr);
        // The AVG family's time includes the shared relaxation.
        const bool shares_lp = algo == "AVG" || algo == "AVG-D";
        const double lp = shares_lp && frac.ok() ? frac->solve_seconds : 0.0;
        t.Add(run.ok() ? run->seconds + lp : -1.0, 3);
      }
      auto ip = RunAlgorithm(*inst, "IP", config);
      t.Add(ip.ok() ? ip->seconds : -1.0, 2);
      t.Add(ip.ok() && ip->proven_optimal ? "yes" : "NO (budget hit)");
    }
    t.Print("Fig 8(a): execution time vs n (Yelp, m=12, k=3)");
    benchutil::RecordMetric("fig8a | time vs n",
                            part_a_timer.ElapsedSeconds(),
                            benchutil::MetricUnit::kSeconds);
  }
  // (b) time vs m, polynomial methods only.
  {
    std::vector<benchutil::SweepPoint> points;
    for (int m : {100, 500, 2000, 5000, 10000}) {
      DatasetParams p;
      p.kind = DatasetKind::kYelp;
      p.num_users = 40;
      p.num_items = m;
      p.num_slots = 10;
      p.seed = 8;
      points.push_back({std::to_string(m), p});
    }
    SolverOptions config;
    config.relaxation.method = RelaxationMethod::kSubgradient;
    config.sdp.diversity_weight = 0.0;
    benchutil::PrintSweep("Fig 8(b): vs item count m (Yelp, n=40, k=10)",
                          "m", points, /*samples=*/2,
                          benchutil::AlgosOrDefault(false), config);
  }
}

void BM_AvgDVsM(benchmark::State& state) {
  DatasetParams p;
  p.kind = DatasetKind::kYelp;
  p.num_users = 40;
  p.num_items = static_cast<int>(state.range(0));
  p.num_slots = 10;
  p.seed = 8;
  auto inst = GenerateDataset(p);
  RelaxationOptions opt;
  opt.method = RelaxationMethod::kSubgradient;
  auto frac = SolveRelaxation(*inst, opt);
  for (auto _ : state) {
    auto result = RunAvgD(*inst, *frac);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_AvgDVsM)->Arg(100)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace savg

SAVG_BENCH_MAIN(savg::PrintTables)
