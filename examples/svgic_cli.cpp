// svgic_cli: run any algorithm of the library on an instance file.
//
//   svgic_cli gen  <kind> <n> <m> <k> <seed> <out.tsv>   generate a dataset
//   svgic_cli run  <solver> <instance.tsv> [out_config.tsv]  solve it
//   svgic_cli eval <instance.tsv> <config.tsv>            score a config
//   svgic_cli genevents <instance.tsv> <mutations> <resolve_every> <seed>
//                       <out.cmds>                       make a command log
//   svgic_cli serve <instance.tsv> <commands>             replay a live
//                                                         serving session
//   svgic_cli trace <host> <port> [last] [--json]         fetch recent
//                                                         request traces
//                                                         from a serverd
//   svgic_cli top <host> <port> [--iters=N]               live health +
//                 [--interval-ms=M]                       windowed-metrics
//                                                         dashboard
//   svgic_cli shutdown <host> <port>                      stop a serverd
//   svgic_cli recover <data_dir> [--cold] [--json=path]   offline crash
//                                                         recovery + state
//                                                         digests
//
// <kind> in {timik, epinions, yelp}; <solver> is any registry name
// (case-insensitive; `svgic_cli run help` lists them), plus "local" =
// AVG-D followed by local-search polish. `serve` drives the online
// subsystem (src/online/) through Session::Apply(SessionCommand): each
// resolve command re-optimizes incrementally from the cached simplex basis
// and prints which path ran plus the pivot counts. Command logs are the
// binary format of serve/session_command.h, as `genevents` writes them.
//
// Global flags (anywhere on the command line):
//   --shards=N      shard count for the sharded paths: the AVG-SHARD
//                   solver under `run`, and sharded serving under `serve`
//                   (a sharded session re-solves only dirty shards)
//   --shard-gap=G   dual-coordination gap tolerance (default 0.01)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "core/io.h"
#include "core/local_search.h"
#include "durability/recovery.h"
#include "durability/snapshot.h"
#include "serve/client.h"
#include "core/objective.h"
#include "datagen/datasets.h"
#include "experiments/runner.h"
#include "metrics/metrics.h"
#include "online/session.h"
#include "shard/shard_solve.h"
#include "solvers/solver_registry.h"
#include "util/logging.h"
#include "util/table.h"

using namespace savg;

namespace {

/// --shards= override (0 = default plan) and --shard-gap= (< 0 = default).
int g_shards = 0;
double g_shard_gap = -1.0;

void ApplyShardFlags(ShardSolveOptions* options) {
  if (g_shards > 0) options->plan.num_shards = g_shards;
  if (g_shard_gap >= 0.0) options->gap_tolerance = g_shard_gap;
}

/// Strips --shards=/--shard-gap= from argv before subcommand parsing.
/// Malformed values exit 2 (a typo must not silently change the solver).
void ConsumeShardFlags(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      const char* value = argv[i] + 9;
      char* end = nullptr;
      const long shards = std::strtol(value, &end, 10);
      if (end == value || *end != '\0' || shards < 0) {
        std::cerr << "--shards expects a non-negative integer, got \""
                  << value << "\"\n";
        std::exit(2);
      }
      g_shards = static_cast<int>(shards);
    } else if (std::strncmp(argv[i], "--shard-gap=", 12) == 0) {
      const char* value = argv[i] + 12;
      char* end = nullptr;
      const double gap = std::strtod(value, &end);
      if (end == value || *end != '\0' || gap < 0.0) {
        std::cerr << "--shard-gap expects a non-negative number, got \""
                  << value << "\"\n";
        std::exit(2);
      }
      g_shard_gap = gap;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
}

std::string KnownSolvers() {
  std::string names;
  for (const std::string& name : SolverRegistry::Global().Names()) {
    if (!names.empty()) names += "|";
    names += name;
  }
  return names;
}

int Usage() {
  std::cerr << "usage:\n"
               "  svgic_cli gen  <timik|epinions|yelp> <n> <m> <k> <seed> "
               "<out>\n"
               "  svgic_cli run  <solver> <instance> [out_config]\n"
               "  svgic_cli eval <instance> <config>\n"
               "  svgic_cli genevents <instance> <mutations> <resolve_every>"
               " <seed> <out>\n"
               "  svgic_cli serve <instance> <commands>\n"
               "  svgic_cli trace <host> <port> [last] [--json]\n"
               "  svgic_cli top <host> <port> [--iters=N] [--interval-ms=M]\n"
               "  svgic_cli shutdown <host> <port>\n"
               "  svgic_cli recover <data_dir> [--cold] [--json=path]\n"
               "flags: --shards=N (sharded solve/serving), --shard-gap=G\n"
               "solvers: "
            << KnownSolvers() << "|local (AVG-D + local search)\n";
  return 2;
}

int Generate(int argc, char** argv) {
  if (argc != 8) return Usage();
  DatasetParams params;
  const std::string kind = argv[2];
  if (kind == "timik") {
    params.kind = DatasetKind::kTimik;
  } else if (kind == "epinions") {
    params.kind = DatasetKind::kEpinions;
  } else if (kind == "yelp") {
    params.kind = DatasetKind::kYelp;
  } else {
    return Usage();
  }
  params.num_users = std::atoi(argv[3]);
  params.num_items = std::atoi(argv[4]);
  params.num_slots = std::atoi(argv[5]);
  params.seed = std::strtoull(argv[6], nullptr, 10);
  auto inst = GenerateDataset(params);
  if (!inst.ok()) {
    std::cerr << "generation failed: " << inst.status() << "\n";
    return 1;
  }
  Status st = WriteInstanceToFile(*inst, argv[7]);
  if (!st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }
  std::cout << "wrote " << inst->DebugString() << " to " << argv[7] << "\n";
  return 0;
}

void PrintReport(const SvgicInstance& inst, const Configuration& config,
                 double seconds) {
  const ObjectiveBreakdown obj = Evaluate(inst, config);
  const SubgroupMetrics sm = ComputeSubgroupMetrics(inst, config);
  Table t({"metric", "value"});
  t.NewRow().Add("total utility (Def. 3)").Add(obj.Total(), 4);
  t.NewRow().Add("scaled total").Add(obj.ScaledTotal(), 4);
  t.NewRow().Add("preference part").Add(obj.preference, 4);
  t.NewRow().Add("social part").Add(obj.social_direct, 4);
  t.NewRow().Add("Intra%").Add(FormatPercent(sm.intra_fraction));
  t.NewRow().Add("Co-display%").Add(FormatPercent(sm.co_display_rate));
  t.NewRow().Add("Alone%").Add(FormatPercent(sm.alone_rate));
  t.NewRow().Add("norm. subgroup density").Add(sm.normalized_density, 3);
  if (seconds >= 0) t.NewRow().Add("solve time (s)").Add(seconds, 3);
  t.Print();
}

int Run(int argc, char** argv) {
  if (argc < 4 || argc > 5) return Usage();
  auto inst = ReadInstanceFromFile(argv[3]);
  if (!inst.ok()) {
    std::cerr << inst.status() << "\n";
    return 1;
  }
  const std::string algo = argv[2];
  SolverOptions config;
  ApplyShardFlags(&config.shard);
  config.ip.mip.time_limit_seconds = 60.0;  // read by the IP solver only
  Timer timer;
  auto run = RunAlgorithm(*inst, algo == "local" ? "AVG-D" : algo, config);
  if (!run.ok()) {
    std::cerr << run.status() << "\n";
    return run.status().code() == StatusCode::kNotFound ? Usage() : 1;
  }
  Configuration result = std::move(run->config);
  if (algo == "local") {
    auto polished = ImproveByLocalSearch(*inst, result);
    if (!polished.ok()) {
      std::cerr << polished.status() << "\n";
      return 1;
    }
    result = std::move(polished->config);
  }
  const double seconds = timer.ElapsedSeconds();
  PrintReport(*inst, result, seconds);
  if (argc == 5) {
    Status st = WriteConfigurationToFile(result, argv[4]);
    if (!st.ok()) {
      std::cerr << st << "\n";
      return 1;
    }
    std::cout << "configuration written to " << argv[4] << "\n";
  }
  return 0;
}

int Eval(int argc, char** argv) {
  if (argc != 4) return Usage();
  auto inst = ReadInstanceFromFile(argv[2]);
  if (!inst.ok()) {
    std::cerr << inst.status() << "\n";
    return 1;
  }
  auto config = ReadConfigurationFromFile(argv[3]);
  if (!config.ok()) {
    std::cerr << config.status() << "\n";
    return 1;
  }
  PrintReport(*inst, *config, -1.0);
  return 0;
}

int GenerateEvents(int argc, char** argv) {
  if (argc != 7) return Usage();
  auto inst = ReadInstanceFromFile(argv[2]);
  if (!inst.ok()) {
    std::cerr << inst.status() << "\n";
    return 1;
  }
  EventStreamParams params;
  params.num_mutations = std::atoi(argv[3]);
  params.resolve_every = std::atoi(argv[4]);
  params.seed = std::strtoull(argv[5], nullptr, 10);
  if (params.num_mutations <= 0) {
    std::cerr << "mutations must be > 0\n";
    return 1;
  }
  const CommandLog log = GenerateEventStream(*inst, params);
  Status st = WriteCommandLogToFile(log, argv[6]);
  if (!st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }
  std::cout << "wrote " << log.size() << " commands to " << argv[6] << "\n";
  return 0;
}

int Serve(int argc, char** argv) {
  if (argc != 4) return Usage();
  auto inst = ReadInstanceFromFile(argv[2]);
  if (!inst.ok()) {
    std::cerr << inst.status() << "\n";
    return 1;
  }
  auto log = ReadCommandLogFromFile(argv[3]);
  if (!log.ok()) {
    std::cerr << log.status() << "\n";
    return 1;
  }

  SessionOptions session_options;
  if (g_shards > 0) {
    session_options.use_sharding = true;
    ApplyShardFlags(&session_options.sharding);
  }
  Session session(std::move(inst).value(), session_options);
  Table t({"resolve", "path", "dirty", "pivots", "phase1", "changed",
           "shards", "LP objective", "utility", "ms"});
  int resolves = 0;
  int64_t incremental_pivots = 0;
  int64_t total_pivots = 0;
  for (size_t i = 0; i < log->size(); ++i) {
    const SessionCommand& command = (*log)[i];
    auto outcome = session.Apply(command);
    if (!outcome.ok()) {
      std::cerr << "command " << i << " failed: " << outcome.status() << "\n";
      return 1;
    }
    if (!outcome->resolved) continue;
    const ResolveReport& report = outcome->report;
    ++resolves;
    total_pivots += report.pivots;
    if (report.path == ResolvePath::kIncremental) {
      incremental_pivots += report.pivots;
    }
    t.NewRow()
        .Add(static_cast<int64_t>(resolves))
        .Add(ResolvePathName(report.path))
        .Add(static_cast<int64_t>(report.num_dirty_users))
        .Add(static_cast<int64_t>(report.pivots))
        .Add(static_cast<int64_t>(report.phase1_pivots))
        .Add(FormatPercent(report.changed_fraction))
        .Add(report.num_shards > 0
                 ? std::to_string(report.num_dirty_shards) + "/" +
                       std::to_string(report.num_shards)
                 : "-")
        .Add(report.lp_objective, 4)
        .Add(report.scaled_total, 4)
        .Add(report.total_seconds * 1000, 2);
  }
  t.Print("serve: " + std::to_string(log->size()) + " commands, " +
          std::to_string(resolves) + " resolves");
  std::cout << "total pivots " << total_pivots << " (incremental path "
            << incremental_pivots << ")\n";
  // Only score a configuration that matches the final instance shape;
  // mutations after the last resolve (or a log with no resolve) leave the
  // served configuration stale or missing.
  if (session.HasConfig() &&
      session.config().num_users() == session.instance().num_users() &&
      session.config().num_items() == session.instance().num_items()) {
    PrintReport(session.instance(), session.config(), -1.0);
  } else {
    std::cout << "final configuration is stale (no resolve after the last "
                 "mutation); append a 'resolve' command to score it\n";
  }
  return 0;
}

// `trace <host> <port> [last] [--json]`: fetches the serverd's recent
// request traces over its HTTP front-end. Default output is the
// human-readable span tree; --json prints the raw Chrome trace-event JSON
// (pipe to a file and load in Perfetto / chrome://tracing).
int FetchTrace(int argc, char** argv) {
  if (argc < 4 || argc > 6) return Usage();
  const std::string host = argv[2];
  const int port = std::atoi(argv[3]);
  int last = 32;
  bool json = false;
  for (int i = 4; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      last = std::atoi(argv[i]);
      if (last <= 0) return Usage();
    }
  }
  const std::string path = "/trace?last=" + std::to_string(last) +
                           (json ? "" : "&format=text");
  auto body = HttpGet(host, port, path);
  if (!body.ok()) {
    std::cerr << body.status() << "\n";
    return 1;
  }
  std::cout << *body;
  if (!body->empty() && body->back() != '\n') std::cout << "\n";
  return 0;
}

// Scrapes `"field": <number>` from the row whose `"name"` is `metric` in
// a windowed-metrics JSON dump (metrics/timeseries.h JsonDump shape).
// Returns 0 when the metric or field is absent — a quiet window simply
// omits rows, which reads as zero activity on the dashboard.
double WindowField(const std::string& json, const std::string& metric,
                   const std::string& field) {
  const std::string anchor = "\"name\": \"" + metric + "\"";
  size_t pos = json.find(anchor);
  if (pos == std::string::npos) return 0.0;
  const std::string key = "\"" + field + "\": ";
  pos = json.find(key, pos);
  if (pos == std::string::npos) return 0.0;
  return std::atof(json.c_str() + pos + key.size());
}

// Scrapes a top-level `"field": "value"` string from a JSON dump.
std::string JsonStringField(const std::string& json,
                            const std::string& field) {
  const std::string key = "\"" + field + "\": \"";
  const size_t pos = json.find(key);
  if (pos == std::string::npos) return "";
  const size_t start = pos + key.size();
  const size_t end = json.find('"', start);
  if (end == std::string::npos) return "";
  return json.substr(start, end - start);
}

// `top <host> <port> [--iters=N] [--interval-ms=M]`: a live dashboard
// over the serverd's HTTP front-end. Each tick polls /health and
// /metrics?window=1 (the most recent capture window) and prints one line:
// verdict, apply rate, resolve p50/p99, shed rate, queue depth, eta-chain
// length, and verify pass/fail deltas. Ctrl-C to stop (or --iters=N for
// scripted captures).
int Top(int argc, char** argv) {
  if (argc < 4) return Usage();
  const std::string host = argv[2];
  const int port = std::atoi(argv[3]);
  long iters = -1;  // -1 = run until interrupted
  long interval_ms = 1000;
  for (int i = 4; i < argc; ++i) {
    if (std::strncmp(argv[i], "--iters=", 8) == 0) {
      iters = std::atol(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--interval-ms=", 14) == 0) {
      interval_ms = std::atol(argv[i] + 14);
      if (interval_ms < 1) return Usage();
    } else {
      return Usage();
    }
  }
  std::printf("%-9s %9s %9s %9s %8s %6s %6s %8s %6s\n", "health",
              "apply/s", "p50_ms", "p99_ms", "shed/s", "queue", "eta",
              "verify", "fail");
  for (long tick = 0; iters < 0 || tick < iters; ++tick) {
    auto health = HttpGet(host, port, "/health");
    auto window = HttpGet(host, port, "/metrics?window=1");
    // /health answers 503 when unhealthy; HttpGet reports that as a
    // status error, which is itself the signal worth printing.
    std::string verdict;
    if (health.ok()) {
      verdict = JsonStringField(*health, "status");
    } else if (health.status().message().find("503") != std::string::npos) {
      verdict = "unhealthy";
    }
    if (verdict.empty()) verdict = "?";
    if (!window.ok()) {
      std::cerr << window.status() << "\n";
      return 1;
    }
    const double apply_rate =
        WindowField(*window, "serve.admitted", "rate");
    const double p50 =
        WindowField(*window, "serve.latency.resolve", "p50") * 1e3;
    const double p99 =
        WindowField(*window, "serve.latency.resolve", "p99") * 1e3;
    const double shed_rate = WindowField(*window, "serve.shed", "rate");
    const double queue =
        WindowField(*window, "serve.queue_depth", "last");
    const double eta = WindowField(*window, "lp.eta_chain", "last");
    const double verify_pass =
        WindowField(*window, "verify.pass", "delta");
    const double verify_fail =
        WindowField(*window, "verify.fail", "delta");
    std::printf("%-9s %9.1f %9.2f %9.2f %8.1f %6.0f %6.0f %8.0f %6.0f\n",
                verdict.c_str(), apply_rate, p50, p99, shed_rate, queue,
                eta, verify_pass, verify_fail);
    std::fflush(stdout);
    if (iters < 0 || tick + 1 < iters) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  }
  return 0;
}

// `shutdown <host> <port>`: sends a kShutdown frame (what bench_serve_load
// --shutdown-server does), so scripts can stop a serverd they started.
int ShutdownServer(int argc, char** argv) {
  if (argc != 4) return Usage();
  ServeClient client;
  Status st = client.Connect(argv[2], std::atoi(argv[3]));
  if (!st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }
  auto sent = client.SendShutdown();
  if (!sent.ok()) {
    std::cerr << sent.status() << "\n";
    return 1;
  }
  auto response = client.ReadResponse();
  if (!response.ok()) {
    std::cerr << response.status() << "\n";
    return 1;
  }
  std::cout << "server acknowledged shutdown\n";
  return 0;
}

// `recover <data_dir> [--cold] [--json=path]`: offline recovery of every
// session persisted by a serverd --data_dir run, printing a per-session
// state digest. The digest covers the complete serving state (instance,
// config, basis, RNG, dirty flags) bit-for-bit, so
//
//   svgic_cli recover d/          (newest snapshot + short replay)
//   svgic_cli recover d/ --cold   (oldest snapshot + long replay)
//
// printing identical digests proves the snapshot fast-path loses nothing
// vs replaying the retained history — the CI crash-recovery job diffs
// exactly these two outputs after a SIGKILL mid-load.
int Recover(int argc, char** argv) {
  std::string data_dir;
  std::string json_path;
  RecoveryOptions options;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cold") == 0) {
      options.cold_replay = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (data_dir.empty()) {
      data_dir = argv[i];
    } else {
      return Usage();
    }
  }
  if (data_dir.empty()) return Usage();

  SessionOptions session_options;
  RecoveryManager recovery(data_dir, session_options, options);
  auto recovered = recovery.RecoverAll();
  if (!recovered.ok()) {
    std::cerr << recovered.status() << "\n";
    return 1;
  }
  std::string json = "{\"mode\": \"";
  json += options.cold_replay ? "cold" : "warm";
  json += "\", \"sessions\": [";
  for (size_t i = 0; i < recovered->size(); ++i) {
    const RecoveredSession& item = (*recovered)[i];
    const uint64_t digest = SessionStateDigest(item.session->CaptureState());
    char digest_hex[17];
    std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                  static_cast<unsigned long long>(digest));
    std::printf(
        "session %u: seq=%llu replayed=%llu snapshot_epoch=%u "
        "fallbacks=%d torn_tail=%d resolves=%d seconds=%.4f "
        "digest=%s\n",
        item.session_id, static_cast<unsigned long long>(item.applied_seq),
        static_cast<unsigned long long>(item.replayed_commands),
        item.snapshot_epoch, item.snapshot_fallbacks,
        item.torn_tail ? 1 : 0, item.session->num_resolves(), item.seconds,
        digest_hex);
    if (i > 0) json += ", ";
    json += "{\"session\": " + std::to_string(item.session_id) +
            ", \"seq\": " + std::to_string(item.applied_seq) +
            ", \"replayed\": " + std::to_string(item.replayed_commands) +
            ", \"snapshot_epoch\": " + std::to_string(item.snapshot_epoch) +
            ", \"torn_tail\": " + (item.torn_tail ? "true" : "false") +
            ", \"seconds\": " + std::to_string(item.seconds) +
            ", \"digest\": \"" + digest_hex + "\"}";
  }
  json += "]}\n";
  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ConsumeShardFlags(&argc, argv);
  if (argc < 2) return Usage();
  if (std::strcmp(argv[1], "gen") == 0) return Generate(argc, argv);
  if (std::strcmp(argv[1], "run") == 0) return Run(argc, argv);
  if (std::strcmp(argv[1], "eval") == 0) return Eval(argc, argv);
  if (std::strcmp(argv[1], "genevents") == 0) {
    return GenerateEvents(argc, argv);
  }
  if (std::strcmp(argv[1], "serve") == 0) return Serve(argc, argv);
  if (std::strcmp(argv[1], "trace") == 0) return FetchTrace(argc, argv);
  if (std::strcmp(argv[1], "top") == 0) return Top(argc, argv);
  if (std::strcmp(argv[1], "shutdown") == 0) {
    return ShutdownServer(argc, argv);
  }
  if (std::strcmp(argv[1], "recover") == 0) return Recover(argc, argv);
  return Usage();
}
