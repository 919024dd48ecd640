// Figure 4: normalized total SAVG utility (vs IP) with the personal/social
// split, for lambda in {0.33, 0.5, 0.67} on small Timik samples.
//
// Expected shapes: PER's share is all-personal with the lowest normalized
// total at high lambda; FMG/SDP improve as lambda grows; AVG/AVG-D closest
// to 1.0 everywhere.

#include "bench_util.h"

namespace savg {
namespace {

void PrintTables() {
  const double kLambdas[] = {0.33, 0.5, 0.67};
  const int kSamples = 3;
  // Successive lambdas share the compact LP's constraint matrix, so the
  // previous point's optimal bases warm-start the next point's solves.
  SweepWarmStart warm;
  for (double lambda : kLambdas) {
    DatasetParams params;
    params.kind = DatasetKind::kTimik;
    params.num_users = 6;
    params.num_items = 16;
    params.num_slots = 3;
    params.lambda = lambda;
    params.seed = 99;
    SolverOptions config;
    config.avg_repeats = 5;
    config.ip.mip.time_limit_seconds = 20.0;
    Timer point_timer;
    auto rows = RunComparison(params, kSamples,
                              benchutil::AlgosOrDefault(true), config,
                              benchutil::WorkerOverride(), &warm);
    benchutil::RecordMetric("fig4 | lambda=" + FormatDouble(lambda, 2),
                            point_timer.ElapsedSeconds(),
                            benchutil::MetricUnit::kSeconds);
    if (!rows.ok()) {
      std::cerr << rows.status() << "\n";
      continue;
    }
    double ip_value = 0.0;
    for (const AggregateRow& row : *rows) {
      if (row.name == "IP") ip_value = row.mean_scaled_total;
    }
    Table t({"algorithm", "normalized total", "Personal%", "Social%"});
    for (const AggregateRow& row : *rows) {
      const double total = row.mean_preference + row.mean_social;
      t.NewRow()
          .Add(row.name)
          .Add(benchutil::Ratio(row.mean_scaled_total, ip_value))
          .Add(total > 0 ? FormatPercent(row.mean_preference / total)
                         : "-")
          .Add(total > 0 ? FormatPercent(row.mean_social / total) : "-");
    }
    t.Print("Fig 4: lambda = " + FormatDouble(lambda, 2) +
            " (normalized by IP)");
  }
}

void BM_RelaxationVsLambda(benchmark::State& state) {
  DatasetParams params;
  params.kind = DatasetKind::kTimik;
  params.num_users = 6;
  params.num_items = 16;
  params.num_slots = 3;
  params.lambda = static_cast<double>(state.range(0)) / 100.0;
  params.seed = 99;
  auto inst = GenerateDataset(params);
  for (auto _ : state) {
    auto frac = SolveRelaxation(*inst);
    benchmark::DoNotOptimize(frac);
  }
}
BENCHMARK(BM_RelaxationVsLambda)->Arg(33)->Arg(50)->Arg(67)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace savg

SAVG_BENCH_MAIN(savg::PrintTables)
