// Section 5 extensions, measured: commodity-value awareness (A), layout
// slot significance (B), multi-view display (C), group-wise social benefit
// saturation (D), subgroup-change smoothing (E), plus the local-search
// polish on top of both AVG variants.
//
// Not a paper figure — the paper describes these extensions analytically —
// but DESIGN.md lists them as implemented features, and this harness
// quantifies each one's effect on a common instance.

#include "bench_util.h"

#include "core/avg.h"
#include "core/avg_d.h"
#include "core/extensions.h"
#include "core/local_search.h"
#include "core/lp_formulation.h"
#include "core/objective.h"
#include "util/logging.h"

namespace savg {
namespace {

void PrintTables() {
  DatasetParams params;
  params.kind = DatasetKind::kTimik;
  params.num_users = 40;
  params.num_items = 400;
  params.num_slots = 10;
  params.seed = 17;
  auto inst = GenerateDataset(params);
  if (!inst.ok()) {
    std::cerr << inst.status() << "\n";
    return;
  }
  Rng rng(99);
  std::vector<float> prices(params.num_items);
  for (float& p : prices) p = static_cast<float>(rng.Uniform(0.2, 3.0));
  inst->set_commodity_values(prices);
  std::vector<float> gamma(params.num_slots, 1.0f);
  gamma[params.num_slots / 2] = 9.0f;
  gamma[params.num_slots / 2 - 1] = 3.0f;
  inst->set_slot_weights(gamma);

  auto frac = SolveRelaxation(*inst);
  auto base = RunAvgD(*inst, *frac);
  if (!base.ok()) return;
  EvaluateOptions weighted;
  weighted.use_extension_weights = true;

  Table t({"extension", "metric", "before", "after"});

  // A. Commodity values: optimize the folded instance.
  {
    auto folded = FoldCommodityValues(*inst);
    auto frac_profit = SolveRelaxation(*folded);
    auto aware = RunAvgD(*folded, *frac_profit);
    t.NewRow()
        .Add("A commodity values")
        .Add("profit-weighted total")
        .Add(Evaluate(*inst, base->config, weighted).Total(), 2)
        .Add(Evaluate(*inst, aware->config, weighted).Total(), 2);
  }
  // B. Slot significance: global slot reordering.
  {
    const Configuration reordered = OptimizeSlotOrder(*inst, base->config);
    t.NewRow()
        .Add("B slot significance")
        .Add("slot-weighted total")
        .Add(Evaluate(*inst, base->config, weighted).Total(), 2)
        .Add(Evaluate(*inst, reordered, weighted).Total(), 2);
  }
  // C. Multi-view display with beta = 3.
  {
    const MultiViewConfig mv = ExtendToMultiView(*inst, base->config, 3);
    t.NewRow()
        .Add("C multi-view (beta=3)")
        .Add("scaled total")
        .Add(Evaluate(*inst, base->config).ScaledTotal(), 2)
        .Add(EvaluateMultiView(*inst, mv), 2);
  }
  // D. Group-wise saturation.
  {
    t.NewRow()
        .Add("D group-wise (sat=1)")
        .Add("scaled total")
        .Add(Evaluate(*inst, base->config).ScaledTotal(), 2)
        .Add(EvaluateGroupwise(*inst, base->config, 1.0), 2);
  }
  // E. Subgroup-change smoothing.
  {
    const Configuration smooth = MinimizeSubgroupChange(*inst, base->config);
    t.NewRow()
        .Add("E subgroup change")
        .Add("edit distance")
        .Add(static_cast<int64_t>(
            SubgroupChangeEditDistance(*inst, base->config)))
        .Add(static_cast<int64_t>(SubgroupChangeEditDistance(*inst, smooth)));
  }
  // Local-search polish on AVG and AVG-D.
  {
    AvgOptions avg_opt;
    avg_opt.seed = 17;
    auto avg = RunAvgBest(*inst, *frac, 3, avg_opt);
    auto avg_ls = ImproveByLocalSearch(*inst, avg->config);
    t.NewRow()
        .Add("local search on AVG")
        .Add("scaled total")
        .Add(avg_ls->initial_value, 2)
        .Add(avg_ls->final_value, 2);
    auto d_ls = ImproveByLocalSearch(*inst, base->config);
    t.NewRow()
        .Add("local search on AVG-D")
        .Add("scaled total")
        .Add(d_ls->initial_value, 2)
        .Add(d_ls->final_value, 2);
  }
  t.Print("Section 5 extensions on one Timik instance (n=40, m=400, k=10)");
  std::printf("LP bound for reference: %.2f\n", frac->lp_objective);
}

void BM_LocalSearchPolish(benchmark::State& state) {
  DatasetParams params;
  params.kind = DatasetKind::kTimik;
  params.num_users = 40;
  params.num_items = 400;
  params.num_slots = 10;
  params.seed = 17;
  auto inst = GenerateDataset(params);
  auto frac = SolveRelaxation(*inst);
  AvgOptions avg_opt;
  avg_opt.seed = 17;
  auto avg = RunAvg(*inst, *frac, avg_opt);
  for (auto _ : state) {
    auto improved = ImproveByLocalSearch(*inst, avg->config);
    benchmark::DoNotOptimize(improved);
  }
}
BENCHMARK(BM_LocalSearchPolish)->Unit(benchmark::kMillisecond);

void BM_MultiViewExtension(benchmark::State& state) {
  DatasetParams params;
  params.kind = DatasetKind::kTimik;
  params.num_users = 40;
  params.num_items = 400;
  params.num_slots = 10;
  params.seed = 17;
  auto inst = GenerateDataset(params);
  auto frac = SolveRelaxation(*inst);
  auto base = RunAvgD(*inst, *frac);
  for (auto _ : state) {
    auto mv = ExtendToMultiView(*inst, base->config,
                                static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(mv);
  }
}
BENCHMARK(BM_MultiViewExtension)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace savg

SAVG_BENCH_MAIN(savg::PrintTables)
