// Sharded solve scalability: AVG-SHARD (community-partitioned per-shard
// LPs + Lagrangian dual coordination, src/shard/) against monolithic AVG,
// on instances growing well past the single-LP practical limit.
//
// Three sections:
//  1. shard plan quality — balance and cut-weight fraction per dataset
//     (the cut fraction is the social mass the duals must recover);
//  2. batch scale sweep plus the headline large instance (4x the largest
//     bench_fig8_scalability point, n=160 at m=10000): paired
//     "(sharded)" / "(monolithic)" --json metrics feed the
//     machine-speed-independent CI wall-time gate
//     (tools/perf_compare.py --suffixes), and the objective ratio is
//     recorded so artifacts document the quality cost of sharding;
//  3. online serving — identical event streams through a sharded and a
//     monolithic Session: sharded re-solves touch only the dirty shards,
//     and the pivot ratio vs the monolithic warm path lands in the
//     artifact.
//
// --shards= / --shard-gap= override the plan size and the dual gap
// tolerance (bench_util.h).

#include <vector>

#include "bench_util.h"
#include "online/session.h"
#include "shard/shard_plan.h"
#include "shard/shard_solve.h"
#include "util/stats.h"

namespace savg {
namespace {

DatasetParams ScaleParams(int n, int m, int k, uint64_t seed) {
  DatasetParams params;
  params.kind = DatasetKind::kYelp;
  params.num_users = n;
  params.num_items = m;
  params.num_slots = k;
  params.lambda = 0.5;
  params.seed = seed;
  return params;
}

SolverOptions ShardConfig() {
  SolverOptions config;
  benchutil::ApplyShardOverrides(&config.shard);
  return config;
}

/// Runs one registry solver end-to-end; returns (scaled total, seconds)
/// or {-1, -1} on failure.
std::pair<double, double> RunOne(const SvgicInstance& instance,
                                 const std::string& name,
                                 const SolverOptions& config) {
  auto solver = SolverRegistry::Global().Find(name);
  if (!solver.ok()) return {-1.0, -1.0};
  SolverContext context;
  context.options = &config;
  context.seed = 42;
  Timer timer;
  auto run = (*solver)->Solve(instance, context);
  if (!run.ok()) {
    std::cerr << name << " failed: " << run.status() << "\n";
    return {-1.0, -1.0};
  }
  return {run->scaled_total, timer.ElapsedSeconds()};
}

void PrintPlanQuality() {
  Table t({"dataset", "n", "shards", "sizes", "balance", "cut pairs",
           "cut weight"});
  for (DatasetKind kind :
       {DatasetKind::kYelp, DatasetKind::kTimik, DatasetKind::kEpinions}) {
    for (int n : {40, 160}) {
      DatasetParams p = ScaleParams(n, 100, 5, 19);
      p.kind = kind;
      auto inst = GenerateDataset(p);
      if (!inst.ok()) continue;
      ShardPlanOptions options;
      if (benchutil::ShardsOverride() > 0) {
        options.num_shards = benchutil::ShardsOverride();
      }
      const ShardPlan plan = BuildShardPlan(*inst, options);
      t.NewRow()
          .Add(DatasetKindName(kind))
          .Add(static_cast<int64_t>(n))
          .Add(static_cast<int64_t>(plan.num_shards()))
          .Add("[" + std::to_string(plan.stats.min_size) + ", " +
               std::to_string(plan.stats.max_size) + "]")
          .Add(plan.stats.balance, 2)
          .Add(static_cast<int64_t>(plan.stats.cut_pairs))
          .Add(FormatPercent(plan.stats.cut_weight_fraction));
    }
  }
  t.Print("Shard plans: community partition quality");
}

void PrintScaleSweep() {
  const SolverOptions config = ShardConfig();
  Table t({"n x m", "AVG", "AVG-SHARD", "AVG (s)", "AVG-SHARD (s)",
           "obj ratio"});
  struct Point {
    int n, m, k;
    bool run_monolithic;
    /// The headline point feeds the paired "(sharded)"/"(monolithic)"
    /// wall-time gate; the others only record plain metrics (on small
    /// instances the monolithic LP is already cheap and the dual rounds'
    /// constant overhead would flap a ratio gate without meaning anything
    /// about scalability).
    bool gate_pair;
  };
  // The largest bench_fig8_scalability instance is n=40 at m=10000
  // (400k utility cells); n=160 at m=10000 is the 4x headline, and the
  // n=640 point runs sharded-only — past the practical monolithic limit.
  const std::vector<Point> points = {
      {40, 2000, 5, true, false},
      {160, 10000, 10, true, true},
      {640, 10000, 10, false, false},
  };
  for (const Point& point : points) {
    auto inst = GenerateDataset(ScaleParams(point.n, point.m, point.k, 8));
    if (!inst.ok()) {
      std::cerr << inst.status() << "\n";
      continue;
    }
    const std::string label =
        std::to_string(point.n) + "x" + std::to_string(point.m);
    const auto sharded = RunOne(*inst, "AVG-SHARD", config);
    std::pair<double, double> mono{-1.0, -1.0};
    if (point.run_monolithic) mono = RunOne(*inst, "AVG", config);
    t.NewRow()
        .Add(label)
        .Add(mono.first, 1)
        .Add(sharded.first, 1)
        .Add(mono.second, 2)
        .Add(sharded.second, 2)
        .Add(benchutil::Ratio(sharded.first, mono.first));
    benchutil::RecordMetric(
        "shard scale | " + label +
            (point.gate_pair ? " (sharded)" : " sharded seconds"),
        sharded.second, benchutil::MetricUnit::kSeconds);
    if (point.run_monolithic) {
      benchutil::RecordMetric(
          "shard scale | " + label +
              (point.gate_pair ? " (monolithic)" : " monolithic seconds"),
          mono.second, benchutil::MetricUnit::kSeconds);
      benchutil::RecordMetric(
          "shard scale | " + label + " objective ratio sharded/monolithic",
          mono.first > 0 ? sharded.first / mono.first : -1.0,
          benchutil::MetricUnit::kRatio);
    }
  }
  t.Print("Batch scale: AVG-SHARD vs monolithic AVG (Yelp, lambda=0.5)");
}

/// Rounds-to-gap of the Polyak dual steps; rounds and the reached gap
/// land in the JSON artifact.
void PrintDualSchedule() {
  auto inst = GenerateDataset(ScaleParams(120, 400, 5, 31));
  if (!inst.ok()) {
    std::cerr << inst.status() << "\n";
    return;
  }
  ShardSolveOptions options;
  benchutil::ApplyShardOverrides(&options);
  options.max_dual_rounds = 24;
  // This instance's intrinsic Lagrangian gap is ~4.5% (the bound cannot
  // meet the stitched primal no matter the duals), so rounds-to-gap is
  // measured against a reachable 7.5%.
  options.gap_tolerance = 0.075;
  auto result = SolveSharded(*inst, options);
  if (!result.ok()) {
    std::cerr << "sharded solve failed: " << result.status() << "\n";
    return;
  }
  const ShardSolveStats& stats = result->stats;
  Table t({"schedule", "dual rounds", "gap", "dual bound", "primal",
           "LP (s)"});
  t.NewRow()
      .Add("polyak")
      .Add(static_cast<int64_t>(stats.dual_rounds))
      .Add(FormatPercent(stats.gap))
      .Add(stats.dual_bound, 1)
      .Add(stats.primal_objective, 1)
      .Add(FormatDouble(stats.lp_seconds, 3));
  benchutil::RecordMetric("shard scale | dual rounds to gap (polyak)",
                          static_cast<double>(stats.dual_rounds),
                          benchutil::MetricUnit::kCount);
  benchutil::RecordMetric("shard scale | dual gap reached (polyak)",
                          stats.gap, benchutil::MetricUnit::kRatio);
  t.Print("Dual coordination: Polyak steps (n=120, m=400, gap tol 7.5%)");
}

struct OnlineReplay {
  int64_t pivots = 0;
  int resolves = 0;
  double dirty_shard_fraction = 0.0;  ///< mean over incremental resolves
  double wall_seconds = 0.0;
  double final_total = 0.0;
};

OnlineReplay ReplayOnline(const SvgicInstance& base, const CommandLog& log,
                          bool sharded) {
  SessionOptions options;
  options.seed = 7;
  options.use_sharding = sharded;
  options.sharding.plan.num_shards = 4;
  benchutil::ApplyShardOverrides(&options.sharding);
  Timer timer;
  Session session(base, options);
  OnlineReplay replay;
  double dirty_fraction_sum = 0.0;
  int incremental = 0;
  for (const SessionCommand& event : log) {
    auto outcome = session.Apply(event);
    if (!outcome.ok()) {
      std::cerr << "event failed: " << outcome.status() << "\n";
      continue;
    }
    if (!outcome->resolved) continue;
    const ResolveReport& report = outcome->report;
    ++replay.resolves;
    replay.pivots += report.pivots;
    replay.final_total = report.scaled_total;
    if (report.num_shards > 0 && report.path == ResolvePath::kIncremental) {
      dirty_fraction_sum +=
          static_cast<double>(report.num_dirty_shards) / report.num_shards;
      ++incremental;
    }
  }
  replay.dirty_shard_fraction =
      incremental > 0 ? dirty_fraction_sum / incremental : 0.0;
  replay.wall_seconds = timer.ElapsedSeconds();
  return replay;
}

void PrintOnlineSharded() {
  DatasetParams params = ScaleParams(48, 64, 3, 23);
  params.universe_users = 4 * params.num_users + 20;
  auto inst = GenerateDataset(params);
  if (!inst.ok()) {
    std::cerr << inst.status() << "\n";
    return;
  }
  EventStreamParams stream;
  stream.num_mutations = 120;
  stream.resolve_every = 4;
  stream.seed = 5;
  const CommandLog log = GenerateEventStream(*inst, stream);

  const OnlineReplay sharded = ReplayOnline(*inst, log, /*sharded=*/true);
  const OnlineReplay mono = ReplayOnline(*inst, log, /*sharded=*/false);

  Table t({"mode", "resolves", "pivots", "wall (s)", "dirty shards",
           "final utility"});
  t.NewRow()
      .Add("sharded")
      .Add(static_cast<int64_t>(sharded.resolves))
      .Add(sharded.pivots)
      .Add(FormatDouble(sharded.wall_seconds, 3))
      .Add(FormatPercent(sharded.dirty_shard_fraction))
      .Add(FormatDouble(sharded.final_total, 2));
  t.NewRow()
      .Add("monolithic")
      .Add(static_cast<int64_t>(mono.resolves))
      .Add(mono.pivots)
      .Add(FormatDouble(mono.wall_seconds, 3))
      .Add("-")
      .Add(FormatDouble(mono.final_total, 2));
  t.Print("Online serving: sharded vs monolithic session (n=48, m=64, k=3)");
  std::cout << "sharded/monolithic pivot ratio: "
            << benchutil::Ratio(static_cast<double>(sharded.pivots),
                                static_cast<double>(mono.pivots))
            << " (mean dirty-shard fraction "
            << FormatPercent(sharded.dirty_shard_fraction) << ")\n\n";

  benchutil::RecordMetric("shard scale | online replay (sharded)",
                          sharded.wall_seconds,
                          benchutil::MetricUnit::kSeconds);
  benchutil::RecordMetric("shard scale | online replay (monolithic)",
                          mono.wall_seconds, benchutil::MetricUnit::kSeconds);
  benchutil::RecordMetric(
      "shard scale | online pivot ratio sharded/monolithic",
      mono.pivots > 0
          ? static_cast<double>(sharded.pivots) / mono.pivots
          : -1.0,
      benchutil::MetricUnit::kRatio);
  benchutil::RecordMetric("shard scale | online mean dirty-shard fraction",
                          sharded.dirty_shard_fraction,
                          benchutil::MetricUnit::kRatio);
}

void PrintTables() {
  PrintPlanQuality();
  PrintScaleSweep();
  PrintDualSchedule();
  PrintOnlineSharded();
}

void BM_ShardedSolve(benchmark::State& state) {
  auto inst = GenerateDataset(
      ScaleParams(static_cast<int>(state.range(0)), 400, 5, 8));
  const SolverOptions config = ShardConfig();
  auto solver = SolverRegistry::Global().Find("AVG-SHARD");
  SolverContext context;
  context.options = &config;
  context.seed = 42;
  for (auto _ : state) {
    auto run = (*solver)->Solve(*inst, context);
    benchmark::DoNotOptimize(run);
  }
}
BENCHMARK(BM_ShardedSolve)->Arg(80)->Arg(160)->Unit(benchmark::kMillisecond);

void BM_MonolithicSolve(benchmark::State& state) {
  auto inst = GenerateDataset(
      ScaleParams(static_cast<int>(state.range(0)), 400, 5, 8));
  const SolverOptions config = ShardConfig();
  auto solver = SolverRegistry::Global().Find("AVG");
  SolverContext context;
  context.options = &config;
  context.seed = 42;
  for (auto _ : state) {
    auto run = (*solver)->Solve(*inst, context);
    benchmark::DoNotOptimize(run);
  }
}
BENCHMARK(BM_MonolithicSolve)->Arg(80)->Arg(160)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace savg

SAVG_BENCH_MAIN(savg::PrintTables)
