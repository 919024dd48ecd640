// Figure 13: SVGIC-ST subgroup-size-constraint violations — total violating
// users over 10 sampled instances, for AVG-ST and the baselines with ("-P")
// and without ("-NP") the balanced pre-partitioning of Section 6.8.
//
// Expected shapes: AVG never violates (CSF locks full groups); PER never
// violates (singleton views, modulo accidentally shared top items);
// FMG-NP is worst (one group of n users per slot); "-P" cuts baseline
// violations sharply but not to zero (parts colliding on the same item).

#include "bench_util.h"

#include "baselines/fmg.h"
#include "baselines/grf.h"
#include "baselines/per.h"
#include "baselines/sdp.h"
#include "baselines/st_prepartition.h"
#include "core/avg_st.h"

namespace savg {
namespace {

void PrintDataset(DatasetKind kind, int n) {
  const int kInstances = 10;
  Table t({"M", "AVG", "PER", "FMG-NP", "FMG-P", "SDP-NP", "SDP-P",
           "GRF-NP", "GRF-P"});
  for (int cap : {3, 5, 8, 12}) {
    int64_t v_avg = 0, v_per = 0, v_fmg_np = 0, v_fmg_p = 0, v_sdp_np = 0,
            v_sdp_p = 0, v_grf_np = 0, v_grf_p = 0;
    for (int sample = 0; sample < kInstances; ++sample) {
      DatasetParams params;
      params.kind = kind;
      params.num_users = n;
      params.num_items = 60;
      params.num_slots = 5;
      params.seed = 140 + sample;
      auto inst = GenerateDataset(params);
      if (!inst.ok()) continue;

      StOptions st;
      st.size_cap = cap;
      st.avg.seed = sample;
      auto avg = RunAvgSt(*inst, st);
      if (avg.ok()) v_avg += SizeConstraintViolation(avg->config, cap);

      auto per = RunPersonalizedTopK(*inst);
      if (per.ok()) v_per += SizeConstraintViolation(*per, cap);

      auto fmg_np = RunFmg(*inst);
      if (fmg_np.ok()) v_fmg_np += SizeConstraintViolation(*fmg_np, cap);
      auto fmg_p = RunWithPrepartition(
          *inst, cap, sample,
          [](const SvgicInstance& sub) { return RunFmg(sub); });
      if (fmg_p.ok()) v_fmg_p += SizeConstraintViolation(*fmg_p, cap);

      auto sdp_np = RunSdp(*inst);
      if (sdp_np.ok()) v_sdp_np += SizeConstraintViolation(*sdp_np, cap);
      auto sdp_p = RunWithPrepartition(
          *inst, cap, sample,
          [](const SvgicInstance& sub) { return RunSdp(sub); });
      if (sdp_p.ok()) v_sdp_p += SizeConstraintViolation(*sdp_p, cap);

      auto grf_np = RunGrf(*inst);
      if (grf_np.ok()) v_grf_np += SizeConstraintViolation(*grf_np, cap);
      auto grf_p = RunWithPrepartition(
          *inst, cap, sample,
          [](const SvgicInstance& sub) { return RunGrf(sub); });
      if (grf_p.ok()) v_grf_p += SizeConstraintViolation(*grf_p, cap);
    }
    t.NewRow()
        .Add(static_cast<int64_t>(cap))
        .Add(v_avg)
        .Add(v_per)
        .Add(v_fmg_np)
        .Add(v_fmg_p)
        .Add(v_sdp_np)
        .Add(v_sdp_p)
        .Add(v_grf_np)
        .Add(v_grf_p);
  }
  t.Print(
      std::string("Fig 13: total size-cap violations over 10 instances, ") +
      DatasetKindName(kind) + " n=" + std::to_string(n));
}

void PrintTables() {
  PrintDataset(DatasetKind::kTimik, 25);
  PrintDataset(DatasetKind::kEpinions, 15);
}

void BM_AvgStRounding(benchmark::State& state) {
  DatasetParams params;
  params.kind = DatasetKind::kTimik;
  params.num_users = 25;
  params.num_items = 60;
  params.num_slots = 5;
  params.seed = 140;
  auto inst = GenerateDataset(params);
  StOptions st;
  st.size_cap = static_cast<int>(state.range(0));
  auto frac = SolveStRelaxation(*inst, st);
  uint64_t seed = 0;
  for (auto _ : state) {
    AvgOptions avg;
    avg.seed = ++seed;
    avg.size_cap = st.size_cap;
    auto result = RunAvg(*inst, *frac, avg);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_AvgStRounding)->Arg(3)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace savg

SAVG_BENCH_MAIN(savg::PrintTables)
