// Figure 7: total SAVG utility under different input utility models —
// PIERT (default, similarity-modulated influence), AGREE (uniform
// influence), GREE (per-triple weights).
//
// Expected shape: AVG/AVG-D on top for every input model (the method is
// generic in the input distribution).

#include "bench_util.h"

namespace savg {
namespace {

void PrintTables() {
  SolverOptions config;
  config.relaxation.method = RelaxationMethod::kSubgradient;
  config.avg_repeats = 3;
  config.sdp.diversity_weight = 0.0;
  for (UtilityModelKind kind :
       {UtilityModelKind::kPiert, UtilityModelKind::kAgree,
        UtilityModelKind::kGree}) {
    DatasetParams params;
    params.kind = DatasetKind::kTimik;
    params.num_users = 60;
    params.num_items = 2000;
    params.num_slots = 20;
    params.seed = 7;
    params.utility.kind = kind;
    auto rows = RunComparison(params, /*samples=*/3,
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
    t.Print(std::string("Fig 7: input model ") + UtilityModelKindName(kind));
  }
}

void BM_PopulateUtilities(benchmark::State& state) {
  const UtilityModelKind kind = static_cast<UtilityModelKind>(state.range(0));
  Rng rng(7);
  for (auto _ : state) {
    DatasetParams params;
    params.kind = DatasetKind::kTimik;
    params.num_users = 60;
    params.num_items = 2000;
    params.num_slots = 20;
    params.seed = rng.Next();
    params.utility.kind = kind;
    auto inst = GenerateDataset(params);
    benchmark::DoNotOptimize(inst);
  }
}
BENCHMARK(BM_PopulateUtilities)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace savg

SAVG_BENCH_MAIN(savg::PrintTables)
