// Figure 10: subgroup metrics per dataset — (a-c) Inter%/Intra% and
// normalized subgroup density, (d-f) co-display rate and alone rate,
// (g-i) regret-ratio CDFs.
//
// Expected shapes: AVG mostly-intra with the highest normalized density and
// near-zero alone rate; FMG trivially 100% intra (one big group, density
// exactly 1); PER mostly inter (all alone on Yelp, some accidental sharing
// of universally liked items on Epinions); AVG's regret CDF dominates.

#include "bench_util.h"

#include "util/stats.h"

namespace savg {
namespace {

void PrintTables() {
  SolverOptions config;
  config.relaxation.method = RelaxationMethod::kSubgradient;
  config.avg_repeats = 3;
  config.sdp.diversity_weight = 0.0;
  const std::vector<std::string> algos = benchutil::AlgosOrDefault(false);
  for (DatasetKind kind :
       {DatasetKind::kTimik, DatasetKind::kEpinions, DatasetKind::kYelp}) {
    DatasetParams params;
    params.kind = kind;
    params.num_users = 60;
    params.num_items = 2000;
    params.num_slots = 20;
    params.seed = 11;
    auto rows = RunComparison(params, /*samples=*/3, algos, config,
                              benchutil::WorkerOverride());
    if (!rows.ok()) {
      std::cerr << rows.status() << "\n";
      continue;
    }
    Table t({"algorithm", "Intra%", "Inter%", "norm.density", "Co-display%",
             "Alone%", "mean regret"});
    for (const AggregateRow& row : *rows) {
      t.NewRow()
          .Add(row.name)
          .Add(FormatPercent(row.mean_subgroup.intra_fraction))
          .Add(FormatPercent(row.mean_subgroup.inter_fraction))
          .Add(row.mean_subgroup.normalized_density, 2)
          .Add(FormatPercent(row.mean_subgroup.co_display_rate))
          .Add(FormatPercent(row.mean_subgroup.alone_rate))
          .Add(row.mean_regret, 3);
    }
    t.Print(std::string("Fig 10(a-f): ") + DatasetKindName(kind) +
            " subgroup metrics (n=60, m=2000, k=20)");

    // Regret CDF at fixed thresholds (g-i).
    Table cdf({"algorithm", "P(reg<=0.1)", "P(reg<=0.2)", "P(reg<=0.4)",
               "P(reg<=0.6)", "P(reg<=0.8)"});
    for (const AggregateRow& row : *rows) {
      cdf.NewRow().Add(row.name);
      for (double threshold : {0.1, 0.2, 0.4, 0.6, 0.8}) {
        cdf.Add(FormatPercent(CdfAt(row.regret_samples, threshold)));
      }
    }
    cdf.Print(std::string("Fig 10(g-i): ") + DatasetKindName(kind) +
              " regret-ratio CDF");
  }
}

void BM_SubgroupMetrics(benchmark::State& state) {
  DatasetParams params;
  params.kind = DatasetKind::kYelp;
  params.num_users = 60;
  params.num_items = 2000;
  params.num_slots = 20;
  params.seed = 11;
  auto inst = GenerateDataset(params);
  auto frac = SolveRelaxation(*inst);
  auto result = RunAvgD(*inst, *frac);
  for (auto _ : state) {
    auto metrics = ComputeSubgroupMetrics(*inst, result->config);
    benchmark::DoNotOptimize(metrics);
  }
}
BENCHMARK(BM_SubgroupMetrics)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace savg

SAVG_BENCH_MAIN(savg::PrintTables)
