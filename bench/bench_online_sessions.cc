// Online serving: replays a synthetic mutation stream through a live
// Session (src/online/) and reports re-solve latency percentiles plus the
// incremental-vs-cold pivot ratio the warm-started serving path buys.
//
// Two replays of the identical command stream:
//  * incremental — Resolve() projects the cached basis across the mutation
//    and re-rounds only the dirty users (the serving path),
//  * cold        — every resolve runs on Session::FromState() of the
//    session's own state with no cached basis and no served configuration,
//    so it re-solves and re-rounds everything (the reference a
//    from-scratch server would pay per resolve).
//
// The paired "(incremental)" / "(cold)" --json metrics feed the
// machine-speed-independent CI gate (tools/perf_compare.py
// --cold-reference): the incremental path must stay well under the cold
// path measured in the same run, so hosted-runner speed never flaps the
// gate. A SessionManager section measures multi-session throughput over
// the shared worker pool.

#include <memory>
#include <mutex>
#include <vector>

#include "bench_util.h"
#include "online/session.h"
#include "online/session_manager.h"
#include "util/stats.h"

namespace savg {
namespace {

DatasetParams ServingParams(uint64_t seed) {
  DatasetParams params;
  params.kind = DatasetKind::kTimik;
  params.num_users = 20;
  params.num_items = 40;
  params.num_slots = 3;
  params.lambda = 0.5;
  params.seed = seed;
  params.universe_users = 4 * params.num_users + 20;
  return params;
}

EventStreamParams ServingStream(uint64_t seed) {
  EventStreamParams stream;
  stream.num_mutations = 120;
  stream.resolve_every = 4;
  stream.seed = seed;
  return stream;
}

struct ReplayStats {
  std::vector<double> resolve_seconds;
  int64_t pivots = 0;
  int64_t phase1_pivots = 0;
  int incremental = 0;
  int cold = 0;
  int cold_fallback = 0;
  double last_total = 0.0;
};

/// Resolves `*session` from scratch: restarts it from its own state with
/// no cached basis and no served configuration, so the resolve solves
/// cold and re-rounds every unit.
Result<ResolveReport> ResolveCold(std::unique_ptr<Session>* session,
                                  const SessionOptions& options) {
  SessionState state = (*session)->CaptureState();
  state.valid_basis = false;
  state.config = Configuration();
  *session = Session::FromState(std::move(state), options);
  return (*session)->Resolve();
}

/// Replays `log` through one session; `cold` turns every resolve into the
/// from-scratch reference.
ReplayStats Replay(const SvgicInstance& base, const CommandLog& log,
                   bool cold) {
  SessionOptions options;
  options.seed = 7;
  auto session = std::make_unique<Session>(base, options);
  ReplayStats stats;
  for (const SessionCommand& event : log) {
    if (event.type != CommandType::kResolve) {
      auto applied = session->Apply(event);
      if (!applied.ok()) {
        std::cerr << "event failed: " << applied.status() << "\n";
      }
      continue;
    }
    auto report = cold ? ResolveCold(&session, options) : session->Resolve();
    if (!report.ok()) {
      std::cerr << "resolve failed: " << report.status() << "\n";
      continue;
    }
    stats.resolve_seconds.push_back(report->total_seconds);
    stats.pivots += report->pivots;
    stats.phase1_pivots += report->phase1_pivots;
    switch (report->path) {
      case ResolvePath::kIncremental:
        ++stats.incremental;
        break;
      case ResolvePath::kCold:
        ++stats.cold;
        break;
      case ResolvePath::kColdFallback:
        ++stats.cold_fallback;
        break;
    }
    stats.last_total = report->scaled_total;
  }
  return stats;
}

void PrintReplayRow(Table* t, const std::string& name,
                    const ReplayStats& stats) {
  t->NewRow()
      .Add(name)
      .Add(static_cast<int64_t>(stats.resolve_seconds.size()))
      .Add(stats.pivots)
      .Add(FormatDouble(Percentile(stats.resolve_seconds, 50) * 1000, 2))
      .Add(FormatDouble(Percentile(stats.resolve_seconds, 99) * 1000, 2))
      .Add(static_cast<int64_t>(stats.incremental))
      .Add(static_cast<int64_t>(stats.cold + stats.cold_fallback))
      .Add(FormatDouble(stats.last_total, 2));
}

void PrintTables() {
  auto inst = GenerateDataset(ServingParams(17));
  if (!inst.ok()) {
    std::cerr << inst.status() << "\n";
    return;
  }
  const CommandLog log = GenerateEventStream(*inst, ServingStream(5));

  Timer incr_timer;
  const ReplayStats incr = Replay(*inst, log, /*cold=*/false);
  const double incr_seconds = incr_timer.ElapsedSeconds();
  Timer cold_timer;
  const ReplayStats cold = Replay(*inst, log, /*cold=*/true);
  const double cold_seconds = cold_timer.ElapsedSeconds();

  Table t({"path", "resolves", "pivots", "p50 (ms)", "p99 (ms)",
           "incremental", "cold", "final utility"});
  PrintReplayRow(&t, "incremental", incr);
  PrintReplayRow(&t, "cold", cold);
  t.Print("Online sessions: " + std::to_string(log.size()) +
          "-command stream (n=20, m=40, k=3)");
  std::cout << "incremental/cold pivot ratio: "
            << benchutil::Ratio(static_cast<double>(incr.pivots),
                                static_cast<double>(cold.pivots))
            << " (phase-1 " << incr.phase1_pivots << " vs "
            << cold.phase1_pivots << ")\n\n";

  benchutil::RecordMetric("online sessions | stream replay (incremental)",
                          incr_seconds, benchutil::MetricUnit::kSeconds);
  benchutil::RecordMetric("online sessions | stream replay (cold)",
                          cold_seconds, benchutil::MetricUnit::kSeconds);
  benchutil::RecordMetric("online sessions | p50 resolve (incremental)",
                          Percentile(incr.resolve_seconds, 50),
                          benchutil::MetricUnit::kSeconds);
  benchutil::RecordMetric("online sessions | p50 resolve (cold)",
                          Percentile(cold.resolve_seconds, 50),
                          benchutil::MetricUnit::kSeconds);
  // Deliberately NOT an "(incremental)"/"(cold)" gate pair: one all-dirty
  // lambda event dominates both tails, so their ratio is ~1 and would only
  // add gate noise. Recorded for the artifact/baseline comparisons.
  benchutil::RecordMetric("online sessions | p99 resolve - incremental",
                          Percentile(incr.resolve_seconds, 99),
                          benchutil::MetricUnit::kSeconds);
  benchutil::RecordMetric("online sessions | p99 resolve - cold",
                          Percentile(cold.resolve_seconds, 99),
                          benchutil::MetricUnit::kSeconds);
  // Which resolve path ran lands in the artifact so regressions in the
  // fallback heuristic (cold_fraction_threshold) are visible from CI runs
  // alone. Counts, not seconds — never part of a timing gate.
  benchutil::RecordMetric("online sessions | path count - incremental",
                          static_cast<double>(incr.incremental),
                          benchutil::MetricUnit::kCount);
  benchutil::RecordMetric("online sessions | path count - cold fallback",
                          static_cast<double>(incr.cold_fallback),
                          benchutil::MetricUnit::kCount);
  benchutil::RecordMetric("online sessions | path count - cold",
                          static_cast<double>(incr.cold),
                          benchutil::MetricUnit::kCount);

  // Multi-session throughput: distinct sessions replay concurrently over
  // the shared pool; per-session serialization keeps each replay
  // bit-identical to its serial run.
  const int kSessions = 6;
  Timer manager_timer;
  SessionManager manager(benchutil::WorkerOverride());
  std::vector<int> ids;
  std::vector<CommandLog> logs;
  for (int i = 0; i < kSessions; ++i) {
    auto session_inst = GenerateDataset(ServingParams(40 + i));
    if (!session_inst.ok()) continue;
    logs.push_back(GenerateEventStream(*session_inst, ServingStream(50 + i)));
    SessionOptions options;
    options.seed = 70 + i;
    ids.push_back(manager.CreateSession(std::move(session_inst).value(),
                                        options));
  }
  // Resolve latencies arrive through the completion callback, on the
  // worker threads.
  std::mutex latencies_mu;
  std::vector<double> all_latencies;
  const ApplyCallback collect = [&](const Status& status,
                                    const CommandOutcome& outcome) {
    if (!status.ok() || !outcome.resolved) return;
    std::lock_guard<std::mutex> lock(latencies_mu);
    all_latencies.push_back(outcome.report.total_seconds);
  };
  int64_t submitted = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    for (const SessionCommand& event : logs[i]) {
      if (manager.Submit(ids[i], event, collect).ok()) ++submitted;
    }
  }
  manager.Drain();
  const double manager_seconds = manager_timer.ElapsedSeconds();
  if (!manager.FirstError().ok()) {
    std::cerr << "manager error: " << manager.FirstError() << "\n";
  }
  Table m({"sessions", "events", "resolves", "wall (s)", "events/s",
           "p99 resolve (ms)"});
  m.NewRow()
      .Add(static_cast<int64_t>(ids.size()))
      .Add(submitted)
      .Add(static_cast<int64_t>(all_latencies.size()))
      .Add(FormatDouble(manager_seconds, 3))
      .Add(FormatDouble(static_cast<double>(submitted) / manager_seconds, 0))
      .Add(FormatDouble(Percentile(all_latencies, 99) * 1000, 2));
  m.Print("SessionManager: concurrent replay");
  benchutil::RecordMetric("online sessions | 6-session concurrent replay",
                          manager_seconds, benchutil::MetricUnit::kSeconds);
}

void BM_IncrementalResolve(benchmark::State& state) {
  auto inst = GenerateDataset(ServingParams(17));
  Session session(std::move(inst).value());
  if (!session.Resolve().ok()) state.SkipWithError("initial resolve failed");
  double value = 0.1;
  for (auto _ : state) {
    value = value < 0.9 ? value + 0.05 : 0.1;
    if (!session.Apply(MakePref(3, 5, value)).ok()) break;
    auto report = session.Resolve();
    if (!report.ok()) break;
    benchmark::DoNotOptimize(report->pivots);
  }
}
BENCHMARK(BM_IncrementalResolve)->Unit(benchmark::kMillisecond);

void BM_ColdResolve(benchmark::State& state) {
  auto inst = GenerateDataset(ServingParams(17));
  auto session = std::make_unique<Session>(std::move(inst).value());
  if (!session->Resolve().ok()) state.SkipWithError("initial resolve failed");
  double value = 0.1;
  for (auto _ : state) {
    value = value < 0.9 ? value + 0.05 : 0.1;
    if (!session->Apply(MakePref(3, 5, value)).ok()) break;
    auto report = ResolveCold(&session, SessionOptions{});
    if (!report.ok()) break;
    benchmark::DoNotOptimize(report->pivots);
  }
}
BENCHMARK(BM_ColdResolve)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace savg

SAVG_BENCH_MAIN(savg::PrintTables)
