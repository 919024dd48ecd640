// serve-burst / serve-churn: an in-process ServeServer (2 workers) with two
// client connections, one session each. One client thread sends every
// request, one at a time, each round to every session in turn: no
// pipelining, no rate search and no second client thread, so nothing the
// run reports depends on how threads happen to interleave.
//
// The end-to-end timings are process CPU time (the server's threads and the
// client's), divided by the host's slowdown over the same interval (see
// host_speed.h). Wall-clock figures are printed beside them.
//
// A run serves a fixed number of rounds per session, set from --seconds by
// a per-workload calibration, not a deadline: every run of a seed serves the
// same commands, so the mix (and the LP growth that departed guests leave
// behind, see CommandStream) never depends on how fast the host was.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>

#include "core/objective.h"
#include "durability/recovery.h"
#include "durability/snapshot.h"
#include "host_speed.h"
#include "serve/client.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {

using savg::ApplyResult;
using savg::CommandType;
using savg::Result;
using savg::ServeClient;
using savg::ServeServer;
using savg::Status;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr int kNumWorkers = 2;
constexpr int kSetupRepeats = 3;
// Passes of the cold planning set per untraced run (about 3 CPU-seconds
// each at reference speed), spread over the run: a spell of a slow host
// lasting some seconds hits one of them, not their median.
constexpr int kColdPlanPasses = 4;
// Warm recoveries per session in the traced run (the untraced run recovers
// once, to check the digest).
constexpr int kRecoveryRepeats = 25;
// Share of the untraced run's rounds the traced run serves (the restart,
// replay and planning probe follow).
constexpr double kTracedServeShare = 0.35;

// Rounds per session per second of --seconds: serving takes about 1.3
// (serve-burst) and 1.0 (serve-churn) CPU-seconds per second of --seconds
// at reference host speed (set-up and the cold planning passes come on
// top).
double RoundsPerSecond(Workload workload) {
  return workload == Workload::kServeBurst ? 8.0 : 40.0;
}

// A request's CPU time is divided by the host's slowdown over the request
// widened by this much on each side (about 8 probe samples around it).
constexpr double kSlowdownWindowMs = 100.0;

// requests_per_cpu_s is the median over stretches of this many rounds (one
// schedule period, so one whole mix, on serve-churn): a stretch the
// host-speed correction misjudges moves one stretch, not the reported rate.
int64_t SegmentRounds(Workload workload) {
  return workload == Workload::kServeBurst ? 20 : kChurnPeriodRounds;
}

// serve.resolve_tail_ms percentile: a run's thousands of resolves leave
// hundreds beyond p95, where p99 would ride on a few dozen.
constexpr double kTailPercentile = 95.0;

// Snapshot trigger, in commands: 8 burst rounds (128 commands) / 24 churn
// rounds (120 commands).
int SnapshotEveryCommands(Workload workload) {
  return workload == Workload::kServeBurst ? 128 : 120;
}

savg::ServerOptions ServerOptionsFor(Workload workload,
                                     const std::string& data_dir) {
  savg::ServerOptions options;
  options.num_workers = kNumWorkers;
  options.trace.sample_every = 0;  // tracing off: only flagged requests
  options.trace.slow_seconds = 0.0;
  options.metrics_interval_seconds = 0.0;  // no capture thread
  options.verify.sample_every = 0;         // verify sampling off
  options.durability = DurabilityOptionsFor(workload, data_dir);
  return options;
}

// One deployed server with its two connected clients.
struct Deployment {
  std::unique_ptr<ServeServer> server;
  std::vector<std::unique_ptr<ServeClient>> clients;
  std::vector<savg::SvgicInstance> instances;  // initial instances
  std::vector<double> last_scaled_total;       // per session
  std::string data_dir;
};

bool ResponseOk(const Result<savg::ServeResponse>& response) {
  return response.ok() && response->kind == savg::FrameKind::kOk &&
         response->has_result && response->result.ok();
}

std::string ResponseError(const Result<savg::ServeResponse>& response) {
  if (!response.ok()) return response.status().ToString();
  return std::string(savg::FrameKindName(response->kind)) + ": " +
         response->result.message;
}

// Generates the instances, starts a server with one session per instance,
// connects the clients and runs every session's cold first resolve, one
// after the other. Everything here counts as set-up; `cpu_seconds` is the
// process CPU time it took, `wall_ms` its interval on the monitor's clock.
std::unique_ptr<Deployment> Deploy(const BenchArgs& args,
                                   const std::string& data_dir,
                                   const HostSpeedMonitor& monitor,
                                   double* cpu_seconds, double wall_ms[2],
                                   Report* report) {
  wall_ms[0] = HostSpeedMonitor::NowMs();
  const double cpu_start = monitor.WorkCpuSeconds();
  auto deployment = std::make_unique<Deployment>();
  deployment->data_dir = data_dir;
  RemoveTree(data_dir);
  const std::vector<InstanceSpec> specs = ServeSessionSpecs();
  for (const InstanceSpec& spec : specs) {
    auto instance = GenerateInstance(spec);
    if (!instance.ok()) {
      report->Check(false, "datagen " + SpecName(spec) + ": " +
                               instance.status().ToString());
      return nullptr;
    }
    deployment->instances.push_back(std::move(*instance));
  }
  deployment->server = std::make_unique<ServeServer>(
      ServerOptionsFor(args.workload, data_dir));
  for (size_t i = 0; i < specs.size(); ++i) {
    deployment->server->CreateSession(
        deployment->instances[i],
        SessionOptionsFor(SessionSeed(args.seed, static_cast<int>(i))));
  }
  Status started = deployment->server->Start();
  if (!started.ok()) {
    report->Check(false, "server start: " + started.ToString());
    return nullptr;
  }
  for (size_t i = 0; i < specs.size(); ++i) {
    auto client = std::make_unique<ServeClient>();
    Status connected =
        client->Connect("127.0.0.1", deployment->server->port());
    if (!connected.ok()) {
      report->Check(false, "client connect: " + connected.ToString());
      return nullptr;
    }
    deployment->clients.push_back(std::move(client));
  }
  for (size_t i = 0; i < specs.size(); ++i) {
    const auto cold = deployment->clients[i]->Apply(static_cast<uint32_t>(i),
                                                    savg::MakeResolve());
    report->AddAttempted(1);
    if (!ResponseOk(cold) || !cold->result.resolved) {
      report->AddFailed(1);
      report->Check(false, "cold resolve of session " + std::to_string(i) +
                               ": " + ResponseError(cold));
      return nullptr;
    }
    deployment->last_scaled_total.push_back(cold->result.scaled_total);
  }
  *cpu_seconds = monitor.WorkCpuSeconds() - cpu_start;
  wall_ms[1] = HostSpeedMonitor::NowMs();
  return deployment;
}

// What one client connection saw during the closed loop.
struct ClientTally {
  std::vector<double> resolve_ms;  // wall, client-observed
  std::vector<double> mutation_ms;
  std::vector<double> overhead_ms;  // client latency - server resolve time
  std::vector<double> utility;  // served total / LP bound, every resolve
  int64_t requests = 0;
  int64_t failed = 0;
  int64_t coalesced = 0;
  int64_t id_mismatches = 0;
  int64_t bound_violations = 0;
  double last_scaled_total = 0.0;
  std::string first_error;
};

// One request of the loop: its round, its interval on the monitor's clock
// and the process CPU time it took (the sampler thread's excluded).
struct RequestTime {
  int64_t round;
  double from_ms, to_ms;
  double cpu_ms;
  bool resolve;
};

// Sends round `round_index` of `stream` to session `session_id`, one
// request at a time; false when the connection is gone.
bool ServeRound(ServeClient* client, uint32_t session_id,
                CommandStream* stream, int64_t round_index,
                const HostSpeedMonitor& monitor, ClientTally* tally,
                std::vector<RequestTime>* times) {
  std::vector<savg::SessionCommand> round;
  std::vector<int64_t> expected_ids;
  stream->NextRound(&round, &expected_ids);
  for (size_t i = 0; i < round.size(); ++i) {
    const bool resolve = round[i].type == CommandType::kResolve;
    const double cpu = monitor.WorkCpuSeconds();
    const double from_ms = HostSpeedMonitor::NowMs();
    auto response = client->Apply(session_id, round[i]);
    const double to_ms = HostSpeedMonitor::NowMs();
    times->push_back({round_index, from_ms, to_ms,
                      (monitor.WorkCpuSeconds() - cpu) * 1e3, resolve});
    const double ms = to_ms - from_ms;
    ++tally->requests;
    if (!ResponseOk(response)) {
      ++tally->failed;
      if (tally->first_error.empty()) {
        tally->first_error = ResponseError(response);
      }
      if (!response.ok()) return false;  // transport failure
      continue;
    }
    const ApplyResult& result = response->result;
    tally->coalesced += result.coalesced;
    if (resolve) {
      tally->resolve_ms.push_back(ms);
      tally->overhead_ms.push_back(ms - result.resolve_seconds * 1e3);
      tally->utility.push_back(result.scaled_total / result.lp_objective);
      if (result.scaled_total > result.lp_objective * (1.0 + 1e-9) + 1e-9) {
        ++tally->bound_violations;
      }
      tally->last_scaled_total = result.scaled_total;
    } else {
      tally->mutation_ms.push_back(ms);
      if (expected_ids[i] >= 0 && result.assigned_id != expected_ids[i]) {
        ++tally->id_mismatches;
      }
    }
  }
  return true;
}

// Requests and CPU time of one loop round (every session's round), at the
// host's speed and at reference speed.
struct RoundTally {
  int64_t requests = 0;
  double cpu_seconds = 0.0;
  double normalised_seconds = 0.0;
};

// Requests per second of `seconds` over each whole stretch of `segment`
// rounds (over the whole loop when it is shorter than one stretch).
std::vector<double> StretchRates(const std::vector<RoundTally>& rounds,
                                 int64_t segment,
                                 double RoundTally::*seconds) {
  std::vector<double> rates;
  const size_t length = std::min(rounds.size(), static_cast<size_t>(segment));
  for (size_t a = 0; length > 0 && a + length <= rounds.size(); a += length) {
    RoundTally stretch;
    for (size_t r = a; r < a + length; ++r) {
      stretch.requests += rounds[r].requests;
      stretch.*seconds += rounds[r].*seconds;
    }
    rates.push_back(stretch.requests / (stretch.*seconds));
  }
  return rates;
}

std::vector<double> Concat(const std::vector<ClientTally>& tallies,
                           std::vector<double> ClientTally::*field) {
  std::vector<double> all;
  for (const ClientTally& tally : tallies) {
    all.insert(all.end(), (tally.*field).begin(), (tally.*field).end());
  }
  return all;
}

// Resolve latency at the fixed tail percentile. The tail resolves are the
// ones that pivot, and on a shared host their run-to-run spread (IQR over
// ten seeds: 0.45 of the median) is beyond any end-to-end bound, so the
// tail is a per-layer number.
void AddResolveTail(std::vector<double> resolve_ms, Report* report) {
  std::sort(resolve_ms.begin(), resolve_ms.end());
  const int64_t beyond = SamplesBeyond(resolve_ms.size(), kTailPercentile);
  report->Add("serve.resolve_tail_ms",
              PercentileSorted(resolve_ms, kTailPercentile), "ms",
              "p" + Fmt(kTailPercentile, 0) + " of n=" +
                  std::to_string(resolve_ms.size()) + ", " +
                  std::to_string(beyond) + " beyond" +
                  (beyond < kMinSamplesBeyond ? " (too few)" : ""));
}

}  // namespace

savg::SessionOptions SessionOptionsFor(uint64_t session_seed) {
  savg::SessionOptions options;
  options.seed = session_seed;
  return options;
}

savg::DurabilityOptions DurabilityOptionsFor(Workload workload,
                                             const std::string& data_dir) {
  savg::DurabilityOptions options;
  options.data_dir = data_dir;
  options.fsync.mode = savg::FsyncPolicy::Mode::kNever;
  options.snapshot_interval_seconds = 0.0;
  options.snapshot_every_commands = SnapshotEveryCommands(workload);
  options.keep_epochs = 2;
  options.final_snapshot_on_shutdown = true;
  options.overwrite_existing_on_attach = true;
  return options;
}

void RunServe(const BenchArgs& args, Report* report) {
  const HostSpeedMonitor monitor;
  const int setups = args.trace ? 1 : kSetupRepeats;
  std::vector<double> setup_seconds, setup_cpu_seconds, setup_wall_seconds;
  std::unique_ptr<Deployment> deployment;
  for (int i = 0; i < setups; ++i) {
    if (deployment != nullptr) {
      deployment->server->Shutdown();
      RemoveTree(deployment->data_dir);
      deployment.reset();
    }
    double cpu_seconds = 0.0;
    double wall_ms[2] = {0.0, 0.0};
    deployment = Deploy(args, args.data_dir + "/serve-" + std::to_string(i),
                        monitor, &cpu_seconds, wall_ms, report);
    if (deployment == nullptr) return;
    setup_seconds.push_back(cpu_seconds /
                            monitor.Slowdown(wall_ms[0], wall_ms[1]));
    setup_cpu_seconds.push_back(cpu_seconds);
    setup_wall_seconds.push_back((wall_ms[1] - wall_ms[0]) / 1e3);
  }
  // Untraced runs plan the cold planning set kColdPlanPasses times, spread
  // evenly from before the serving loop to after it.
  std::unique_ptr<ColdPlanning> cold;
  if (!args.trace) {
    cold = std::make_unique<ColdPlanning>(args, monitor, report);
    cold->Pass();
  }

  // --- The measured closed loop: one thread sends every request, one at a
  // time, each round to every session in turn.
  const int sessions = static_cast<int>(deployment->clients.size());
  const auto rounds = std::max<int64_t>(
      1, std::llround(RoundsPerSecond(args.workload) * args.seconds *
                      (args.trace ? kTracedServeShare : 1.0)));
  std::vector<std::unique_ptr<CommandStream>> streams;
  for (int i = 0; i < sessions; ++i) {
    streams.push_back(std::make_unique<CommandStream>(
        args.workload, SessionSeed(args.seed, i), deployment->instances[i]));
  }
  std::vector<ClientTally> tallies(sessions);
  std::vector<RequestTime> times;
  const double loop_start_ms = HostSpeedMonitor::NowMs();
  bool connected = true;
  int cold_passes = 1;
  for (int64_t r = 0; r < rounds && connected; ++r) {
    if (cold != nullptr &&
        r * (kColdPlanPasses - 1) >= cold_passes * rounds) {
      cold->Pass();
      ++cold_passes;
    }
    for (int i = 0; i < sessions && connected; ++i) {
      connected = ServeRound(deployment->clients[i].get(),
                             static_cast<uint32_t>(i), streams[i].get(), r,
                             monitor, &tallies[i], &times);
    }
  }
  const double loop_end_ms = HostSpeedMonitor::NowMs();
  while (cold != nullptr && cold_passes < kColdPlanPasses) {
    cold->Pass();
    ++cold_passes;
  }
  if (cold != nullptr) cold->Finish();
  const double wall = (loop_end_ms - loop_start_ms) / 1e3;
  int64_t requests = 0;
  for (const ClientTally& tally : tallies) {
    requests += tally.requests;
    report->AddAttempted(tally.requests);
    report->AddFailed(tally.failed);
    report->Check(tally.failed == 0,
                  "failed or refused requests (first: " + tally.first_error +
                      ")");
    report->Check(tally.id_mismatches == 0,
                  "join/add-item assigned an unexpected id");
    report->Check(tally.bound_violations == 0,
                  "served scaled total above the LP bound");
    report->Check(tally.coalesced == 0,
                  "a closed-loop resolve was coalesced");
  }

  // --- Final served state: valid, and Evaluate() reproduces the last total.
  savg::ServeServer& server = *deployment->server;
  server.manager().Drain();
  std::vector<uint64_t> live_digests;
  for (int i = 0; i < sessions; ++i) {
    const savg::Session& session = server.manager().session(i);
    const Status valid = session.config().CheckValid();
    report->Check(valid.ok(), "session " + std::to_string(i) +
                                  " served configuration invalid: " +
                                  valid.ToString());
    const double expected = tallies[i].resolve_ms.empty()
                                ? deployment->last_scaled_total[i]
                                : tallies[i].last_scaled_total;
    const double evaluated =
        savg::Evaluate(session.instance(), session.config()).ScaledTotal();
    report->Check(evaluated == expected,
                  "session " + std::to_string(i) + " Evaluate() " +
                      Fmt(evaluated, 9) + " != last served total " +
                      Fmt(expected, 9));
    live_digests.push_back(savg::SessionStateDigest(session.CaptureState()));
  }
  const int64_t shed = static_cast<int64_t>(
      server.metrics().GetCounter("serve.shed")->value());
  server.Shutdown();

  const std::vector<double> resolve_ms =
      Concat(tallies, &ClientTally::resolve_ms);
  const TimingSummary mutations =
      Summarize(Concat(tallies, &ClientTally::mutation_ms));
  Report::Note(std::string(WorkloadName(args.workload)) + ": " +
               std::to_string(rounds) + " rounds per session, " +
               std::to_string(requests) + " requests over " + Fmt(wall, 3) +
               " s from one client thread over " + std::to_string(sessions) +
               " connections, " + std::to_string(kNumWorkers) + " workers");
  Report::Note("mutation latency: median " + Fmt(mutations.median, 4) +
               " ms, p" + Fmt(mutations.tail_percentile, 1) + " " +
               Fmt(mutations.tail, 4) + " ms, n=" +
               std::to_string(mutations.count));

  // --- Restart: warm recovery of every session from the shutdown snapshot,
  // then its first resolve (time until the session answers again).
  const int recoveries = args.trace ? kRecoveryRepeats : 1;
  double recover_seconds = 0.0;
  for (int i = 0; i < sessions; ++i) {
    savg::RecoveryManager recovery(deployment->data_dir,
                                   SessionOptionsFor(SessionSeed(args.seed,
                                                                 i)));
    std::vector<double> times;
    for (int rep = 0; rep < recoveries; ++rep) {
      const Clock::time_point t = Clock::now();
      auto recovered = recovery.RecoverSession(static_cast<uint32_t>(i));
      const double recover_seconds_only = SecondsSince(t);
      if (!recovered.ok()) {
        report->Check(false, "recovery of session " + std::to_string(i) +
                                 ": " + recovered.status().ToString());
        break;
      }
      const uint64_t digest =
          savg::SessionStateDigest(recovered->session->CaptureState());
      const Clock::time_point resolve_start = Clock::now();
      auto resolved = recovered->session->Resolve();
      const double resolve_seconds = SecondsSince(resolve_start);
      times.push_back(recover_seconds_only + resolve_seconds);
      report->Check(digest == live_digests[i],
                    "recovered digest of session " + std::to_string(i) +
                        " differs from the live session");
      report->Check(resolved.ok() &&
                        resolved->scaled_total == tallies[i].last_scaled_total,
                    "session " + std::to_string(i) +
                        "'s first resolve after recovery changed the served "
                        "total");
      if (rep == 0) {
        Report::Note("session " + std::to_string(i) + " recovery replays " +
                     std::to_string(recovered->replayed_commands) +
                     " commands, first resolve " +
                     Fmt(resolve_seconds * 1e3, 2) + " ms");
      }
    }
    recover_seconds += Median(times);
  }
  RemoveTree(deployment->data_dir);
  deployment.reset();

  if (args.trace) {
    report->AddTiming("serve.overhead_ms",
                      Summarize(Concat(tallies, &ClientTally::overhead_ms)),
                      "ms");
    AddResolveTail(resolve_ms, report);
    report->Add("serve.mutation_ms", mutations.median, "ms",
                "median of n=" + std::to_string(mutations.count));
    report->Add("admission.shed", static_cast<double>(shed), "count");
    report->Add("recovery.restart_ms", recover_seconds * 1e3, "ms",
                "sum over " + std::to_string(sessions) +
                    " sessions of the median of " +
                    std::to_string(recoveries) +
                    " warm recoveries + first resolve");
    RunReplay(args, report);
    RunPlanProbe(args, report);
    return;
  }
  const TimingSummary wall_resolves = Summarize(resolve_ms);
  Report::Note("wall clock: resolve latency median " +
               Fmt(wall_resolves.median, 4) + " ms, p" +
               Fmt(wall_resolves.tail_percentile, 1) + " " +
               Fmt(wall_resolves.tail, 4) + " ms; " +
               Fmt(static_cast<double>(requests) / wall, 1) +
               " requests/s; set-up median " +
               Fmt(Median(setup_wall_seconds), 4) + " s (" +
               Fmt(Median(setup_cpu_seconds), 4) +
               " CPU-s at the host's speed)");
  // Each request's CPU time at reference speed; per-round sums.
  std::vector<RoundTally> round_tallies(static_cast<size_t>(rounds));
  std::vector<double> resolve_cpu_ms, resolve_normalised_ms;
  for (const RequestTime& t : times) {
    const double normalised_ms =
        t.cpu_ms / monitor.Slowdown(t.from_ms - kSlowdownWindowMs,
                                    t.to_ms + kSlowdownWindowMs);
    RoundTally& round = round_tallies[t.round];
    ++round.requests;
    round.cpu_seconds += t.cpu_ms / 1e3;
    round.normalised_seconds += normalised_ms / 1e3;
    if (t.resolve) {
      resolve_cpu_ms.push_back(t.cpu_ms);
      resolve_normalised_ms.push_back(normalised_ms);
    }
  }
  Report::Note("host slowdown over the loop " +
               Fmt(monitor.Slowdown(loop_start_ms, loop_end_ms), 3) +
               " (median probe unit / " +
               Fmt(HostSpeedMonitor::kReferenceMs, 1) + " ms, " +
               std::to_string(monitor.samples()) + " samples in the run)");
  Report::Note("resolve CPU time at the host's speed: median " +
               Fmt(Median(resolve_cpu_ms), 4) + " ms");
  report->AddTiming("resolve_cpu_ms", Summarize(resolve_normalised_ms), "ms");
  const int64_t segment = SegmentRounds(args.workload);
  const std::vector<double> raw_rates =
      StretchRates(round_tallies, segment, &RoundTally::cpu_seconds);
  const std::vector<double> rates =
      StretchRates(round_tallies, segment, &RoundTally::normalised_seconds);
  report->Add("requests_per_cpu_s", Median(rates), "1/s",
              "median over " + std::to_string(rates.size()) +
                  " stretches of " + std::to_string(segment) +
                  " rounds; at the host's speed " + Fmt(Median(raw_rates), 1));
  const std::vector<double> utility = Concat(tallies, &ClientTally::utility);
  report->Add("utility", Median(utility), "share",
              "median served total / LP bound over all " +
                  std::to_string(utility.size()) + " resolves");
  report->AddTiming("setup_s", Summarize(setup_seconds), "s");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace perfbench
