// Closed/open-loop load generator for the serving front-end
// (svgic_serverd / ServeServer), driving the framed binary protocol
// through ServeClient.
//
// Phases against one server, in this order:
//  * untraced / traced — a closed-loop A/B over pairs of twin sessions
//    (2p, 2p + 1; one client thread per pair, so an external server needs
//    2 * ceil(clients / 2) sessions). Every command of one random stream
//    goes to both twins back to back, with the wire trace flag set on one
//    and clear on the other, so the traced arm (full span tree per
//    request, src/obs/) and the untraced arm (zero tracing: the server
//    runs with sampling and the slow log off) make the same solves on
//    the same LP and sample identical machine conditions. Each arm's cost
//    is its sum of closed-loop request latencies; a scheduler stall spans
//    both arms and cancels out of the ratio. The phase repeats --ab-reps
//    times (flipping parity each rep) and the reported pair is the rep
//    with the MEDIAN traced/untraced ratio, so no single noisy rep can
//    masquerade as tracing overhead.
//  * unverified / verified — the same interleaved A/B over the wire
//    verify flag (kFrameFlagVerify): the verified arm snapshots every
//    resolve for the off-thread KKT + objective self-check
//    (src/obs/verify.h) while the unverified arm runs with sampling
//    off. The bench also asserts the verifier reported zero failures
//    over the whole stream.
//  * uncoalesced — each client owns one session and runs a strict closed
//    loop (one resolve in flight at a time), so every resolve request
//    pays its own Resolve(); the per-request reference cost.
//  * coalesced   — the same clients pipeline bursts of resolve requests,
//    which the server folds into one Resolve() per burst (request
//    coalescing); same request count, a fraction of the solves.
//  * flash crowd — open loop: every client blasts an interleaved
//    mutation/resolve burst without reading responses, far past the
//    admission bound, and counts the kOverloaded shed responses.
//
// The paired "(coalesced)" / "(uncoalesced)" --json metrics feed the
// machine-speed-independent CI gate (tools/perf_compare.py
// --cold-reference --suffixes): coalesced wall time must stay well under
// the same run's uncoalesced wall time. The paired "(traced)" /
// "(untraced)" metrics gate tracing overhead the same way: always-on
// tracing must stay within a few percent of the untraced wall, and the
// paired "(verified)" / "(unverified)" metrics gate self-verification
// overhead at 2%.
//
// A separate in-process durability phase (skipped against an external
// server; `--durability-only` runs just this phase) measures the closed-loop
// cost of the changelog under fsync=never / on-resolve / every-command
// against a no-durability baseline, then times snapshot-based recovery vs a
// cold full replay of the same data_dir and cross-checks their state
// digests. The paired "(fsync-resolve)" / "(no-durability)" metrics feed
// the CI durability gate (fsync-on-resolve must stay within 15% of the
// volatile closed loop).
//
// By default the server runs in-process on an ephemeral port; --port=
// targets an external svgic_serverd instead (the CI e2e demo), and
// --shutdown-server ends that server's lifecycle with a kShutdown frame.
//
//   bench_serve_load [--port=P] [--host=H] [--clients=C] [--rounds=R]
//                    [--mutations=M] [--resolves=B] [--burst=N]
//                    [--users=U] [--items=I] [--queue-depth=D]
//                    [--ab-reps=K] [--json=path] [--shutdown-server]
//                    [--durability-only]

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "datagen/datasets.h"
#include "durability/recovery.h"
#include "durability/session_store.h"
#include "durability/snapshot.h"
#include "online/session.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/stats.h"

namespace savg {
namespace {

struct LoadConfig {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = start an in-process ServeServer
  int clients = 4;
  int rounds = 6;
  int mutations_per_round = 8;
  int resolves_per_round = 8;
  /// Flash-crowd commands per client (0 disables the phase).
  int burst = 512;
  /// Alternating untraced/traced repetitions for the overhead A/B.
  int ab_reps = 5;
  /// Mutation id ranges (must match the served instance; the in-process
  /// server overwrites them from the generated dataset).
  int users = 20;
  int items = 40;
  int64_t queue_depth = 256;  ///< in-process server only
  bool shutdown_server = false;
  /// Run only the in-process durability phase (its own perf_*.json).
  bool durability_only = false;
  uint64_t seed = 17;
};

/// Per-client tallies, merged after the threads join.
struct ClientStats {
  std::vector<double> resolve_latencies;
  std::vector<double> mutation_latencies;
  int64_t requests = 0;
  int64_t overloaded = 0;
  int64_t errors = 0;
};

SessionCommand RandomMutation(const LoadConfig& config, std::mt19937_64* rng) {
  std::uniform_int_distribution<int> user(0, config.users - 1);
  std::uniform_int_distribution<int> item(0, config.items - 1);
  std::uniform_real_distribution<double> value(0.05, 0.95);
  return MakePref(user(*rng), item(*rng), value(*rng));
}

/// Reads one response, charging its latency to the send timer in `sent`.
Status Receive(ServeClient* client,
               std::unordered_map<uint64_t, Timer>* sent,
               std::vector<double>* latencies, ClientStats* stats) {
  auto response = client->ReadResponse();
  SAVG_RETURN_NOT_OK(response.status());
  auto it = sent->find(response->request_id);
  if (it != sent->end()) {
    latencies->push_back(it->second.ElapsedSeconds());
    sent->erase(it);
  }
  if (response->kind == FrameKind::kOverloaded) {
    ++stats->overloaded;
  } else if (response->kind != FrameKind::kOk) {
    ++stats->errors;
  }
  return Status::OK();
}

/// The uncoalesced / coalesced phases serve this many times --rounds, so
/// each arm's wall clears the CI gate's 0.05 s floor ~5x at the current
/// resolve speed (at 1x both ran 8-21 ms and the gate gated nothing).
constexpr int kPhaseRoundsPerRound = 18;

/// One client's share of a measured phase: closed-loop mutations, then
/// either closed-loop (`pipeline=false`) or pipelined resolves. `trace`
/// forces the wire trace flag on every request.
Status RunClient(const LoadConfig& config, int client_index, bool pipeline,
                 bool trace, ClientStats* stats) {
  ServeClient client;
  SAVG_RETURN_NOT_OK(client.Connect(config.host, config.port));
  const uint32_t session = static_cast<uint32_t>(client_index);
  std::mt19937_64 rng(config.seed + 1000 + client_index);
  std::unordered_map<uint64_t, Timer> sent;
  for (int round = 0; round < kPhaseRoundsPerRound * config.rounds; ++round) {
    for (int i = 0; i < config.mutations_per_round; ++i) {
      auto id =
          client.SendApply(session, RandomMutation(config, &rng), trace);
      SAVG_RETURN_NOT_OK(id.status());
      sent.emplace(*id, Timer());
      ++stats->requests;
      SAVG_RETURN_NOT_OK(
          Receive(&client, &sent, &stats->mutation_latencies, stats));
    }
    int outstanding = 0;
    for (int i = 0; i < config.resolves_per_round; ++i) {
      auto id = client.SendApply(session, MakeResolve(), trace);
      SAVG_RETURN_NOT_OK(id.status());
      sent.emplace(*id, Timer());
      ++stats->requests;
      if (pipeline) {
        ++outstanding;
      } else {
        SAVG_RETURN_NOT_OK(
            Receive(&client, &sent, &stats->resolve_latencies, stats));
      }
    }
    for (; outstanding > 0; --outstanding) {
      SAVG_RETURN_NOT_OK(
          Receive(&client, &sent, &stats->resolve_latencies, stats));
    }
  }
  return Status::OK();
}

/// The overhead A/Bs serve this many times --rounds per rep, so each
/// arm's latency sum stays well clear of the CI gates' 0.05 s floor at
/// the current LP speed.
constexpr int kAbRoundsPerRound = 3;

/// Number of twin-session pairs the overhead A/Bs drive: one client
/// thread per pair, sessions 2p and 2p + 1.
int AbPairs(const LoadConfig& config) { return (config.clients + 1) / 2; }

/// Sessions the bench drives: one per client, and both twins of every
/// A/B pair.
int NumSessions(const LoadConfig& config) {
  return std::max(config.clients, 2 * AbPairs(config));
}

/// One client's share of an overhead A/B: a closed loop over the twin
/// sessions 2 * `pair` and 2 * `pair` + 1 that sends every command of
/// one random stream to both twins, once with a wire flag — trace
/// (`verify_mode` false) or verify — set and once with it clear, back to
/// back, so both arms sample the same machine conditions. The twins start
/// from the same instance, take their first solves before any other phase
/// and then receive identical streams, so they hold the same LP: the two
/// arms make the same solves, and which arm gets an expensive repair is
/// no longer chance. The in-process server also gives both twins one
/// seed, so their roundings match too; an external server seeds its
/// sessions itself, and there only the LP solves match. `parity` and a
/// per-kind command count alternate which twin carries the flag and
/// which of the two requests goes first, so each arm gets every
/// combination equally often. Every
/// resolve follows a mutation, so each one solves: a resolve with nothing
/// changed since a 0-pivot solve reuses the served answer, and timing
/// those would bound almost nothing. Each request's latency is charged to
/// the arm that issued it (`off_stats` = flag clear, `on_stats` = set).
Status RunAbClient(const LoadConfig& config, int pair, int parity,
                   bool verify_mode, ClientStats* off_stats,
                   ClientStats* on_stats) {
  ServeClient client;
  SAVG_RETURN_NOT_OK(client.Connect(config.host, config.port));
  const uint32_t first_twin = static_cast<uint32_t>(2 * pair);
  std::mt19937_64 rng(config.seed + 9000 + pair);
  std::unordered_map<uint64_t, Timer> sent;
  // Commands sent so far, per kind (mutation, resolve): each kind cycles
  // through all four (flagged twin, first request) combinations.
  int sent_of_kind[2] = {0, 0};
  auto send_to_both = [&](const SessionCommand& command) -> Status {
    const bool resolve = command.type == CommandType::kResolve;
    const int k = sent_of_kind[resolve]++;
    const int on_twin = (k + parity) & 1;
    const bool on_first = ((k / 2 + parity) & 1) != 0;
    for (int turn = 0; turn < 2; ++turn) {
      const bool on = (turn == 0) == on_first;
      ClientStats* stats = on ? on_stats : off_stats;
      const uint32_t session = first_twin + (on ? on_twin : 1 - on_twin);
      auto id = client.SendApply(session, command,
                                 /*trace=*/on && !verify_mode,
                                 /*verify=*/on && verify_mode);
      SAVG_RETURN_NOT_OK(id.status());
      sent.emplace(*id, Timer());
      ++stats->requests;
      std::vector<double>* latencies = resolve ? &stats->resolve_latencies
                                               : &stats->mutation_latencies;
      SAVG_RETURN_NOT_OK(Receive(&client, &sent, latencies, stats));
    }
    return Status::OK();
  };
  for (int round = 0; round < kAbRoundsPerRound * config.rounds; ++round) {
    for (int i = 0; i < config.mutations_per_round; ++i) {
      SAVG_RETURN_NOT_OK(send_to_both(RandomMutation(config, &rng)));
    }
    for (int i = 0; i < config.resolves_per_round; ++i) {
      SAVG_RETURN_NOT_OK(send_to_both(RandomMutation(config, &rng)));
      SAVG_RETURN_NOT_OK(send_to_both(MakeResolve()));
    }
  }
  return Status::OK();
}

/// One client's share of the flash crowd: blast the whole burst at
/// session 0 (every client piles onto the same session), then drain.
Status RunFlashClient(const LoadConfig& config, int client_index,
                      ClientStats* stats) {
  ServeClient client;
  SAVG_RETURN_NOT_OK(client.Connect(config.host, config.port));
  std::mt19937_64 rng(config.seed + 5000 + client_index);
  std::unordered_map<uint64_t, Timer> sent;
  for (int i = 0; i < config.burst; ++i) {
    const SessionCommand command =
        i % 2 == 0 ? RandomMutation(config, &rng) : MakeResolve();
    SAVG_RETURN_NOT_OK(client.SendApply(0, command).status());
    ++stats->requests;
  }
  std::vector<double> ignored;
  for (int i = 0; i < config.burst; ++i) {
    SAVG_RETURN_NOT_OK(Receive(&client, &sent, &ignored, stats));
  }
  return Status::OK();
}

void MergeStats(const ClientStats& s, ClientStats* merged) {
  merged->resolve_latencies.insert(merged->resolve_latencies.end(),
                                   s.resolve_latencies.begin(),
                                   s.resolve_latencies.end());
  merged->mutation_latencies.insert(merged->mutation_latencies.end(),
                                    s.mutation_latencies.begin(),
                                    s.mutation_latencies.end());
  merged->requests += s.requests;
  merged->overloaded += s.overloaded;
  merged->errors += s.errors;
}

/// Closed-loop seconds this arm's requests spent in flight, excluding
/// the slowest 10% — the per-arm cost measure for the interleaved
/// tracing A/B (a phase wall cannot be split between the interleaved
/// arms). The trim matters: the LP engine's periodic refactorizations
/// make a few resolves 30-80x the median, and which ARM such a spike
/// lands on is an accident of request position, so untrimmed sums
/// measure spike placement instead of tracing overhead.
double TrimmedLatencySum(const ClientStats& stats) {
  std::vector<double> all;
  all.reserve(stats.resolve_latencies.size() +
              stats.mutation_latencies.size());
  all.insert(all.end(), stats.resolve_latencies.begin(),
             stats.resolve_latencies.end());
  all.insert(all.end(), stats.mutation_latencies.begin(),
             stats.mutation_latencies.end());
  std::sort(all.begin(), all.end());
  const size_t keep = all.size() - all.size() / 10;
  double total = 0.0;
  for (size_t i = 0; i < keep; ++i) total += all[i];
  return total;
}

/// Fans `fn` out over config.clients threads and merges the tallies.
/// Returns the phase wall-clock seconds.
template <typename Fn>
double RunPhase(const LoadConfig& config, Fn fn, ClientStats* merged) {
  std::vector<ClientStats> stats(config.clients);
  std::vector<std::thread> threads;
  Timer timer;
  threads.reserve(config.clients);
  for (int i = 0; i < config.clients; ++i) {
    threads.emplace_back([&, i] {
      Status status = fn(i, &stats[i]);
      if (!status.ok()) std::cerr << "client " << i << ": " << status << "\n";
    });
  }
  for (auto& thread : threads) thread.join();
  const double wall = timer.ElapsedSeconds();
  for (const ClientStats& s : stats) MergeStats(s, merged);
  return wall;
}

/// The median-ratio rep of one interleaved flag A/B: per-arm trimmed
/// closed-loop latency sums plus the tallies behind them.
struct AbResult {
  double off_wall = 0.0;
  double on_wall = 0.0;
  ClientStats off;
  ClientStats on;
};

/// Runs one interleaved overhead A/B (`ab_reps` closed-loop reps of
/// RunAbClient, parity flipping every rep so neither arm systematically
/// gets the even-numbered requests) and returns the rep with the MEDIAN
/// on/off ratio, which no single noisy rep can drag over the CI gate.
/// Per-rep sums go to stderr: when the CI overhead gate flaps, that
/// spread is the first thing to look at.
AbResult RunAbPhase(const LoadConfig& config, bool verify_mode,
                    const char* label) {
  std::vector<ClientStats> rep_off(config.ab_reps);
  std::vector<ClientStats> rep_on(config.ab_reps);
  std::vector<double> off_wall(config.ab_reps);
  std::vector<double> on_wall(config.ab_reps);
  for (int rep = 0; rep < config.ab_reps; ++rep) {
    const int pairs = AbPairs(config);
    std::vector<ClientStats> off(pairs), on(pairs);
    std::vector<std::thread> threads;
    threads.reserve(pairs);
    for (int i = 0; i < pairs; ++i) {
      threads.emplace_back([&, i] {
        Status status =
            RunAbClient(config, i, rep & 1, verify_mode, &off[i], &on[i]);
        if (!status.ok()) {
          std::cerr << label << " ab client " << i << ": " << status << "\n";
        }
      });
    }
    for (auto& thread : threads) thread.join();
    for (int i = 0; i < pairs; ++i) {
      MergeStats(off[i], &rep_off[rep]);
      MergeStats(on[i], &rep_on[rep]);
    }
    off_wall[rep] = TrimmedLatencySum(rep_off[rep]);
    on_wall[rep] = TrimmedLatencySum(rep_on[rep]);
    std::cerr << label << " ab rep " << rep << ": off "
              << FormatDouble(off_wall[rep], 3) << "s, on "
              << FormatDouble(on_wall[rep], 3) << "s (ratio "
              << FormatDouble(on_wall[rep] / off_wall[rep], 3) << ")\n";
  }
  std::vector<int> by_ratio(config.ab_reps);
  for (int rep = 0; rep < config.ab_reps; ++rep) by_ratio[rep] = rep;
  std::sort(by_ratio.begin(), by_ratio.end(), [&](int a, int b) {
    return on_wall[a] * off_wall[b] < on_wall[b] * off_wall[a];
  });
  const int median_rep = by_ratio[by_ratio.size() / 2];
  AbResult result;
  result.off_wall = off_wall[median_rep];
  result.on_wall = on_wall[median_rep];
  result.off = std::move(rep_off[median_rep]);
  result.on = std::move(rep_on[median_rep]);
  return result;
}

/// Crude numeric-field extraction from the status JSON (the bench only
/// reports a couple of scalar fields; no JSON parser in the repo).
double FindJsonNumber(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

/// Value of one named counter in the status JSON's metrics array
/// (`{"name": "<name>", "value": N}` rows); -1 when absent.
double FindMetricValue(const std::string& json, const std::string& name) {
  const std::string anchor = "\"name\": \"" + name + "\"";
  const size_t pos = json.find(anchor);
  if (pos == std::string::npos) return -1.0;
  const std::string key = "\"value\": ";
  const size_t value_pos = json.find(key, pos);
  if (value_pos == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + value_pos + key.size(), nullptr);
}

void AddPhaseRow(Table* t, const std::string& name, double wall,
                 const ClientStats& stats) {
  t->NewRow()
      .Add(name)
      .Add(stats.requests)
      .Add(FormatDouble(wall, 3))
      .Add(FormatDouble(static_cast<double>(stats.requests) / wall, 0))
      .Add(FormatDouble(Percentile(stats.resolve_latencies, 50) * 1000, 2))
      .Add(FormatDouble(Percentile(stats.resolve_latencies, 99) * 1000, 2))
      .Add(stats.overloaded)
      .Add(stats.errors);
}

/// rm -rf for the bench durability scratch directories (stale epoch files
/// from a previous run would skew the recovery rows).
void RemoveTreeRecursive(const std::string& path) {
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) return;
  while (dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    const std::string child = path + "/" + name;
    if (::unlink(child.c_str()) != 0) RemoveTreeRecursive(child);
  }
  ::closedir(dir);
  ::rmdir(path.c_str());
}

/// The command stream every durability arm replays: the same mutation mix
/// as the serving phases, one resolve per mutation burst, for twice the
/// serving rounds. At the default --rounds its arms run ~8-17 ms, under
/// the perf gate's 0.05 s noise floor, so the durability gate passes
/// whatever the ratio until the stream is resized.
CommandLog BuildDurabilityStream(const LoadConfig& config) {
  CommandLog log;
  std::mt19937_64 rng(config.seed + 31);
  for (int round = 0; round < 2 * config.rounds; ++round) {
    for (int i = 0; i < config.mutations_per_round; ++i) {
      log.push_back(RandomMutation(config, &rng));
    }
    log.push_back(MakeResolve());
  }
  return log;
}

struct DurabilityArmResult {
  double wall = 0.0;
  int64_t appends = 0;
  int64_t fsyncs = 0;
  int64_t snapshots = 0;
};

/// One closed-loop durability arm: a direct in-process Session (no
/// sockets/threads — the arms differ only in the journal's fsync policy,
/// so the wire stack would just add shared noise) applying the shared
/// stream. `durability` == nullptr is the no-journal baseline. The cold
/// first solve is identical across arms and kept out of the timer, like
/// the serving phases' warm-up. Snapshots run in-band exactly as the
/// SessionManager drives them.
Result<DurabilityArmResult> RunDurabilityArm(
    const SvgicInstance& inst, const CommandLog& log,
    const DurabilityOptions* durability, uint64_t seed) {
  MetricsRegistry registry;
  SessionOptions session_options;
  session_options.seed = seed;
  Session session(inst, session_options);
  std::unique_ptr<SessionStore> store;
  SessionJournal* journal = nullptr;
  if (durability != nullptr) {
    store = std::make_unique<SessionStore>(*durability, &registry);
    auto attached = store->Attach(0, session);
    SAVG_RETURN_NOT_OK(attached.status());
    journal = *attached;
    session.set_journal(journal);
  }
  SAVG_RETURN_NOT_OK(session.Apply(MakeResolve()).status());
  Timer timer;
  for (const SessionCommand& command : log) {
    SAVG_RETURN_NOT_OK(session.Apply(command).status());
    if (journal != nullptr && journal->ShouldSnapshot()) {
      SAVG_RETURN_NOT_OK(journal->TakeSnapshot(session));
    }
  }
  DurabilityArmResult result;
  result.wall = timer.ElapsedSeconds();
  result.appends = registry.GetCounter("durability.appends")->value();
  result.fsyncs = registry.GetCounter("durability.fsyncs")->value();
  result.snapshots = registry.GetCounter("durability.snapshots")->value();
  // The arm ends crash-like: no Flush(), no final snapshot — the recovery
  // rows below then measure a real post-kill replay, not an empty one.
  return result;
}

struct RecoveryTiming {
  double seconds = 0.0;
  uint64_t replayed = 0;
  uint64_t applied_seq = 0;
  uint64_t digest = 0;
};

Result<RecoveryTiming> TimeRecovery(const std::string& data_dir, bool cold) {
  RecoveryOptions options;
  options.cold_replay = cold;
  RecoveryManager manager(data_dir, SessionOptions{}, options);
  Timer timer;
  auto recovered = manager.RecoverSession(0);
  SAVG_RETURN_NOT_OK(recovered.status());
  RecoveryTiming timing;
  timing.seconds = timer.ElapsedSeconds();
  timing.replayed = recovered->replayed_commands;
  timing.applied_seq = recovered->applied_seq;
  timing.digest = SessionStateDigest(recovered->session->CaptureState());
  return timing;
}

/// The durability phase: closed-loop walls across fsync policies against a
/// no-durability baseline, then snapshot recovery vs cold full replay of
/// the fsync-resolve arm's data_dir (with a digest cross-check). In-process
/// only — against an external server the journal lives out of reach.
int RunDurabilityPhase(const LoadConfig& config) {
  DatasetParams params;
  params.kind = DatasetKind::kTimik;
  params.num_users = config.users;
  params.num_items = config.items;
  params.num_slots = 3;
  params.lambda = 0.5;
  params.seed = config.seed;
  auto inst = GenerateDataset(params);
  if (!inst.ok()) {
    std::cerr << inst.status() << "\n";
    return 1;
  }
  const CommandLog log = BuildDurabilityStream(config);
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string root =
      std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
      "/savg_bench_durability";
  RemoveTreeRecursive(root);

  struct Arm {
    const char* label;
    bool durable;
    FsyncPolicy::Mode mode;
  };
  const Arm arms[] = {
      {"no-durability", false, FsyncPolicy::Mode::kNever},
      {"fsync-never", true, FsyncPolicy::Mode::kNever},
      {"fsync-resolve", true, FsyncPolicy::Mode::kOnResolve},
      {"fsync-command", true, FsyncPolicy::Mode::kEveryN},
  };
  // Every arm applies the identical deterministic stream, so run-to-run
  // spread is pure machine noise (scheduler, CPU frequency, page cache) on
  // ~0.3s walls — big enough to flip the 1.15x gate. Round-robin the arms
  // across a few reps (a slow stretch of machine hits all arms, not one)
  // and keep each arm's MIN wall, the least-noise estimate of its cost.
  constexpr int kReps = 3;
  constexpr int kNumArms = static_cast<int>(sizeof(arms) / sizeof(arms[0]));
  double best_wall[kNumArms];
  DurabilityArmResult counters[kNumArms];
  std::fill(best_wall, best_wall + kNumArms, 1e300);
  std::string resolve_dir;
  for (int rep = 0; rep < kReps; ++rep) {
    for (int a = 0; a < kNumArms; ++a) {
      const Arm& arm = arms[a];
      DurabilityOptions durability;
      durability.data_dir = root + "/" + arm.label;
      durability.fsync.mode = arm.mode;
      durability.fsync.every_n = 1;
      durability.snapshot_interval_seconds = 0.0;
      durability.snapshot_every_commands = 64;
      if (arm.mode == FsyncPolicy::Mode::kOnResolve) {
        resolve_dir = durability.data_dir;
      }
      // Fresh directory per rep; the last rep's files stay on disk for the
      // recovery rows below.
      RemoveTreeRecursive(durability.data_dir);
      auto result = RunDurabilityArm(*inst, log,
                                     arm.durable ? &durability : nullptr,
                                     config.seed);
      if (!result.ok()) {
        std::cerr << "durability arm " << arm.label << ": "
                  << result.status() << "\n";
        return 1;
      }
      best_wall[a] = std::min(best_wall[a], result->wall);
      counters[a] = *result;
    }
  }
  Table t({"durability", "commands", "wall (s)", "cmd/s", "appends",
           "fsyncs", "snapshots"});
  for (int a = 0; a < kNumArms; ++a) {
    t.NewRow()
        .Add(std::string(arms[a].label))
        .Add(static_cast<int64_t>(log.size()))
        .Add(FormatDouble(best_wall[a], 3))
        .Add(FormatDouble(static_cast<double>(log.size()) / best_wall[a], 0))
        .Add(counters[a].appends)
        .Add(counters[a].fsyncs)
        .Add(counters[a].snapshots);
    benchutil::RecordMetric(
        std::string("serve durability | closed loop (") + arms[a].label + ")",
        best_wall[a], benchutil::MetricUnit::kSeconds);
  }
  t.Print("Durability closed loop: " + std::to_string(log.size()) +
          " commands, snapshot every 64, min of " + std::to_string(kReps) +
          " reps");

  // Recovery of the fsync-resolve arm's directory, ended crash-like above:
  // warm (newest valid snapshot + tail replay) vs cold (oldest retained
  // snapshot, maximal replay). Both must land on the same state digest —
  // the snapshot fast-path may not lose anything.
  auto warm = TimeRecovery(resolve_dir, /*cold=*/false);
  auto cold = TimeRecovery(resolve_dir, /*cold=*/true);
  if (!warm.ok() || !cold.ok()) {
    std::cerr << "recovery failed: "
              << (!warm.ok() ? warm.status() : cold.status()) << "\n";
    return 1;
  }
  std::cout << "recovery: warm " << FormatDouble(warm->seconds * 1000, 2)
            << "ms (" << warm->replayed << " replayed), cold replay "
            << FormatDouble(cold->seconds * 1000, 2) << "ms ("
            << cold->replayed << " replayed), applied_seq "
            << warm->applied_seq << "\n";
  if (warm->digest != cold->digest) {
    std::cerr << "recovery digest mismatch: warm != cold replay — the "
                 "snapshot fast-path diverged from full replay\n";
    return 1;
  }
  benchutil::RecordMetric("serve durability | recovery (warm)",
                          warm->seconds, benchutil::MetricUnit::kSeconds);
  benchutil::RecordMetric("serve durability | recovery (cold replay)",
                          cold->seconds, benchutil::MetricUnit::kSeconds);
  return 0;
}

int RunLoad(LoadConfig config) {
  if (config.durability_only) {
    const int rc = RunDurabilityPhase(config);
    benchutil::WriteJsonMetrics();
    return rc;
  }
  const bool external_server = config.port != 0;
  // In-process server unless --port= points at an external svgic_serverd.
  std::unique_ptr<ServeServer> local;
  if (config.port == 0) {
    DatasetParams params;
    params.kind = DatasetKind::kTimik;
    params.num_users = config.users;
    params.num_items = config.items;
    params.num_slots = 3;
    params.lambda = 0.5;
    params.seed = config.seed;
    auto inst = GenerateDataset(params);
    if (!inst.ok()) {
      std::cerr << inst.status() << "\n";
      return 1;
    }
    ServerOptions options;
    options.admission.max_queue_depth = config.queue_depth;
    // Zero tracing unless a request forces it via the wire flag: the
    // untraced phases are then a true no-tracing baseline, and the traced
    // phase measures the full (every-request) tracing cost.
    options.trace.sample_every = 0;
    options.trace.slow_seconds = 0.0;
    // Same for self-verification: only the wire verify flag triggers it,
    // so the unverified A/B arm is a clean baseline.
    options.verify.sample_every = 0;
    local = std::make_unique<ServeServer>(options);
    for (int i = 0; i < NumSessions(config); ++i) {
      SessionOptions session_options;
      // Both twins of an A/B pair share a seed (see RunAbClient).
      session_options.seed = config.seed + i / 2;
      local->CreateSession(*inst, session_options);
    }
    Status started = local->Start();
    if (!started.ok()) {
      std::cerr << started << "\n";
      return 1;
    }
    config.port = local->port();
  }

  // Warm-up: first resolve per session is the cold LP solve; keep it out
  // of the measured phases so they compare incremental resolves only.
  {
    ServeClient client;
    Status connected = client.Connect(config.host, config.port);
    if (!connected.ok()) {
      std::cerr << connected << "\n";
      return 1;
    }
    for (int i = 0; i < NumSessions(config); ++i) {
      auto response = client.Apply(static_cast<uint32_t>(i), MakeResolve());
      if (!response.ok()) {
        std::cerr << "warm-up resolve failed: " << response.status() << "\n";
        return 1;
      }
    }
  }

  // Tracing-overhead A/B: closed-loop reps in which every command goes
  // to both twin sessions of a pair, traced on one and untraced on the
  // other, so the two arms make the same solves at millisecond
  // granularity and a scheduler stall lands on both. The A/Bs run first:
  // the twins must not yet have diverged under the per-client streams
  // of the phases below.
  const AbResult trace_ab =
      RunAbPhase(config, /*verify_mode=*/false, "trace");
  // Self-verification overhead A/B: the same twin interleaving over the
  // wire verify flag. With sampling off (verify.sample_every = 0 above)
  // the unverified arm is a true no-verification baseline; the verified
  // arm pays the full per-request cost — snapshotting the instance +
  // config on the hot path plus the off-thread KKT + objective audit.
  const AbResult verify_ab =
      RunAbPhase(config, /*verify_mode=*/true, "verify");
  ClientStats uncoalesced, coalesced, flash;
  const double uncoalesced_wall = RunPhase(
      config,
      [&](int i, ClientStats* s) {
        return RunClient(config, i, /*pipeline=*/false, /*trace=*/false, s);
      },
      &uncoalesced);
  const double coalesced_wall = RunPhase(
      config,
      [&](int i, ClientStats* s) {
        return RunClient(config, i, /*pipeline=*/true, /*trace=*/false, s);
      },
      &coalesced);
  double flash_wall = 0.0;
  if (config.burst > 0) {
    flash_wall = RunPhase(
        config,
        [&](int i, ClientStats* s) { return RunFlashClient(config, i, s); },
        &flash);
  }

  // Server-side counters (coalesce ratio, shed count, verifier verdicts)
  // from the status command; fetched before the shutdown frame. The
  // in-process verifier is flushed first so every enqueued self-check
  // has reported.
  if (local != nullptr) local->verifier().Flush();
  double coalesce_ratio = -1.0;
  double server_shed = -1.0;
  double verify_pass = -1.0;
  double verify_fail = -1.0;
  {
    ServeClient client;
    if (client.Connect(config.host, config.port).ok()) {
      auto status_json = client.FetchStatus();
      if (status_json.ok()) {
        coalesce_ratio = FindJsonNumber(*status_json, "coalesce_ratio");
        server_shed = FindJsonNumber(*status_json, "shed");
        verify_pass = FindMetricValue(*status_json, "verify.pass");
        verify_fail = FindMetricValue(*status_json, "verify.fail");
      }
      if (config.shutdown_server) {
        if (client.SendShutdown().ok()) client.ReadResponse();
      }
    }
  }

  Table t({"phase", "requests", "wall (s)", "req/s", "p50 resolve (ms)",
           "p99 resolve (ms)", "overloaded", "errors"});
  AddPhaseRow(&t, "uncoalesced (closed loop)", uncoalesced_wall, uncoalesced);
  AddPhaseRow(&t, "coalesced (pipelined)", coalesced_wall, coalesced);
  // For the interleaved A/B rows, "wall" is the arm's closed-loop
  // latency sum (the two arms share one phase wall).
  AddPhaseRow(&t, "untraced (interleaved)", trace_ab.off_wall, trace_ab.off);
  AddPhaseRow(&t, "traced (interleaved)", trace_ab.on_wall, trace_ab.on);
  AddPhaseRow(&t, "unverified (interleaved)", verify_ab.off_wall,
              verify_ab.off);
  AddPhaseRow(&t, "verified (interleaved)", verify_ab.on_wall,
              verify_ab.on);
  if (config.burst > 0) AddPhaseRow(&t, "flash crowd", flash_wall, flash);
  t.Print("Serve load: " + std::to_string(config.clients) + " clients x " +
          std::to_string(kPhaseRoundsPerRound * config.rounds) +
          " rounds (" +
          std::to_string(config.mutations_per_round) + " mutations + " +
          std::to_string(config.resolves_per_round) + " resolves)");
  std::cout << "server coalesce ratio "
            << (coalesce_ratio >= 0 ? FormatDouble(coalesce_ratio, 3) : "n/a")
            << ", server shed count "
            << (server_shed >= 0
                    ? std::to_string(static_cast<int64_t>(server_shed))
                    : "n/a")
            << ", self-verifications "
            << (verify_pass >= 0
                    ? std::to_string(static_cast<int64_t>(verify_pass))
                    : "n/a")
            << " passed / "
            << (verify_fail >= 0
                    ? std::to_string(static_cast<int64_t>(verify_fail))
                    : "n/a")
            << " failed\n";

  benchutil::RecordMetric("serve load | resolve phase (coalesced)",
                          coalesced_wall, benchutil::MetricUnit::kSeconds);
  benchutil::RecordMetric("serve load | resolve phase (uncoalesced)",
                          uncoalesced_wall, benchutil::MetricUnit::kSeconds);
  benchutil::RecordMetric("serve load | p50 resolve - coalesced",
                          Percentile(coalesced.resolve_latencies, 50),
                          benchutil::MetricUnit::kSeconds);
  benchutil::RecordMetric("serve load | p99 resolve - coalesced",
                          Percentile(coalesced.resolve_latencies, 99),
                          benchutil::MetricUnit::kSeconds);
  benchutil::RecordMetric("serve load | p50 resolve - uncoalesced",
                          Percentile(uncoalesced.resolve_latencies, 50),
                          benchutil::MetricUnit::kSeconds);
  benchutil::RecordMetric("serve load | p99 resolve - uncoalesced",
                          Percentile(uncoalesced.resolve_latencies, 99),
                          benchutil::MetricUnit::kSeconds);
  benchutil::RecordMetric("serve load | closed loop (untraced)",
                          trace_ab.off_wall, benchutil::MetricUnit::kSeconds);
  benchutil::RecordMetric("serve load | closed loop (traced)",
                          trace_ab.on_wall, benchutil::MetricUnit::kSeconds);
  benchutil::RecordMetric("serve load | p99 resolve - traced",
                          Percentile(trace_ab.on.resolve_latencies, 99),
                          benchutil::MetricUnit::kSeconds);
  benchutil::RecordMetric("serve load | closed loop (unverified)",
                          verify_ab.off_wall, benchutil::MetricUnit::kSeconds);
  benchutil::RecordMetric("serve load | closed loop (verified)",
                          verify_ab.on_wall, benchutil::MetricUnit::kSeconds);
  benchutil::RecordMetric("serve load | p99 resolve - verified",
                          Percentile(verify_ab.on.resolve_latencies, 99),
                          benchutil::MetricUnit::kSeconds);
  benchutil::RecordMetric("serve load | verify failures",
                          verify_fail >= 0 ? verify_fail : 0.0,
                          benchutil::MetricUnit::kCount);
  benchutil::RecordMetric("serve load | flash crowd shed responses",
                          static_cast<double>(flash.overloaded),
                          benchutil::MetricUnit::kCount);
  benchutil::RecordMetric("serve load | coalesce ratio", coalesce_ratio,
                          benchutil::MetricUnit::kRatio);

  // Durability arms run in-process only: against an external server the
  // journal (and its data_dir) lives in the server process, out of reach.
  int durability_rc = 0;
  if (!external_server) durability_rc = RunDurabilityPhase(config);
  benchutil::WriteJsonMetrics();

  if (local != nullptr) local->Shutdown();
  if (durability_rc != 0) return durability_rc;
  // A flash crowd that never sheds means the admission bound was not
  // exercised — fail loudly so CI notices a broken demo, not a green run.
  if (config.burst > 0 && flash.overloaded == 0) {
    std::cerr << "flash crowd produced no kOverloaded responses; raise "
                 "--burst or lower --queue-depth\n";
    return 1;
  }
  // The verified arm forced a self-check on half its requests; any
  // failure means the solver handed out a configuration that does not
  // re-evaluate to its reported objective (or violates KKT) — a
  // correctness bug, not a perf problem.
  if (verify_fail > 0) {
    std::cerr << "self-verification reported "
              << static_cast<int64_t>(verify_fail)
              << " failed check(s) over the bench stream\n";
    return 1;
  }
  return 0;
}

long ParseLong(const char* flag, const char* value) {
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || parsed < 0) {
    std::cerr << flag << " expects a non-negative integer, got \"" << value
              << "\"\n";
    std::exit(2);
  }
  return parsed;
}

}  // namespace
}  // namespace savg

int main(int argc, char** argv) {
  savg::LoadConfig config;
  struct IntFlag {
    const char* name;
    int* value;
  };
  const IntFlag int_flags[] = {
      {"--port=", &config.port},
      {"--clients=", &config.clients},
      {"--rounds=", &config.rounds},
      {"--mutations=", &config.mutations_per_round},
      {"--resolves=", &config.resolves_per_round},
      {"--burst=", &config.burst},
      {"--users=", &config.users},
      {"--items=", &config.items},
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    bool matched = false;
    for (const IntFlag& flag : int_flags) {
      const size_t len = std::strlen(flag.name);
      if (std::strncmp(arg, flag.name, len) == 0) {
        *flag.value =
            static_cast<int>(savg::ParseLong(flag.name, arg + len));
        matched = true;
        break;
      }
    }
    if (matched) continue;
    if (std::strncmp(arg, "--host=", 7) == 0) {
      config.host = arg + 7;
    } else if (std::strncmp(arg, "--ab-reps=", 10) == 0) {
      config.ab_reps =
          static_cast<int>(savg::ParseLong("--ab-reps", arg + 10));
    } else if (std::strncmp(arg, "--queue-depth=", 14) == 0) {
      config.queue_depth = savg::ParseLong("--queue-depth", arg + 14);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      config.seed =
          static_cast<uint64_t>(savg::ParseLong("--seed", arg + 7));
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      savg::benchutil::JsonPath() = arg + 7;
    } else if (std::strcmp(arg, "--shutdown-server") == 0) {
      config.shutdown_server = true;
    } else if (std::strcmp(arg, "--durability-only") == 0) {
      config.durability_only = true;
    } else {
      std::cerr << "unknown flag " << arg << "\n";
      return 2;
    }
  }
  if (config.clients < 1 || config.rounds < 1 ||
      config.resolves_per_round < 1 || config.ab_reps < 1) {
    std::cerr << "--clients/--rounds/--resolves/--ab-reps must be >= 1\n";
    return 2;
  }
  return savg::RunLoad(config);
}
