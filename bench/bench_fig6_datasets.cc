// Figure 6: total SAVG utility across the three dataset emulators
// (Timik / Epinions / Yelp) at the paper's default scale, with the
// personal/social split per algorithm.
//
// Expected shapes: AVG/AVG-D win everywhere; Epinions' sparse trust network
// yields lower social utility (PER nearly competitive there); Yelp's
// diversified tastes crush the single-bundle FMG.

#include "bench_util.h"

namespace savg {
namespace {

void PrintTables() {
  SolverOptions config;
  config.relaxation.method = RelaxationMethod::kSubgradient;
  config.avg_repeats = 3;
  config.sdp.diversity_weight = 0.0;
  for (DatasetKind kind :
       {DatasetKind::kTimik, DatasetKind::kEpinions, DatasetKind::kYelp}) {
    DatasetParams params;
    params.kind = kind;
    params.num_users = 125;
    params.num_items = 10000;
    params.num_slots = 50;
    params.seed = 6;
    auto rows = RunComparison(params, /*samples=*/2,
                              benchutil::AlgosOrDefault(false), config,
                              benchutil::WorkerOverride());
    if (!rows.ok()) {
      std::cerr << rows.status() << "\n";
      continue;
    }
    Table t({"algorithm", "total", "personal part", "social part"});
    for (const AggregateRow& row : *rows) {
      t.NewRow()
          .Add(row.name)
          .Add(row.mean_scaled_total, 1)
          .Add(row.mean_preference, 1)
          .Add(row.mean_social, 1);
    }
    t.Print(std::string("Fig 6: ") + DatasetKindName(kind) +
            " (n=125, m=10000, k=50)");
  }
}

void BM_DatasetGeneration(benchmark::State& state) {
  DatasetParams params;
  params.kind = static_cast<DatasetKind>(state.range(0));
  params.num_users = 125;
  params.num_items = 10000;
  params.num_slots = 50;
  params.seed = 6;
  for (auto _ : state) {
    auto inst = GenerateDataset(params);
    benchmark::DoNotOptimize(inst);
  }
}
BENCHMARK(BM_DatasetGeneration)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace savg

SAVG_BENCH_MAIN(savg::PrintTables)
