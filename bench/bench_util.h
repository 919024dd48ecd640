// Shared helpers for the figure/table reproduction binaries.
//
// Every binary in bench/ does two things:
//  1. prints the paper-style table(s)/series for its figure (the
//     reproduction output recorded in EXPERIMENTS.md), and
//  2. registers a couple of google-benchmark microbenchmarks of the code
//     paths the figure exercises.
//
// SAVG_BENCH_MAIN(fn) wires the two together. Algorithms are addressed by
// solver-registry name; every binary accepts `--algos=avg,grf` (and
// `--workers=N`) to override a figure's default algorithm list, so one
// build serves arbitrary slices of the experiment matrix.

#pragma once

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/runner.h"
#include "solvers/solver_registry.h"
#include "util/logging.h"
#include "util/table.h"

namespace savg {
namespace benchutil {

/// One x-axis point of a sweep: a label plus the dataset parameters.
struct SweepPoint {
  std::string label;
  DatasetParams params;
};

/// --algos= override shared by the whole binary (empty = use the figure's
/// default list).
inline std::vector<std::string>& AlgoOverride() {
  static std::vector<std::string> override_names;
  return override_names;
}

/// --workers= override for the batch engine (0 = all cores).
inline int& WorkerOverride() {
  static int workers = 0;
  return workers;
}

/// --json= output path (empty = no JSON metrics file).
inline std::string& JsonPath() {
  static std::string path;
  return path;
}

/// --shards= override for the sharded solve paths (0 = plan default).
inline int& ShardsOverride() {
  static int shards = 0;
  return shards;
}

/// --shard-gap= override for the dual-coordination gap tolerance
/// (< 0 = option default).
inline double& ShardGapOverride() {
  static double gap = -1.0;
  return gap;
}

/// Applies the --shards=/--shard-gap= overrides to a ShardSolveOptions.
inline void ApplyShardOverrides(ShardSolveOptions* options) {
  if (ShardsOverride() > 0) options->plan.num_shards = ShardsOverride();
  if (ShardGapOverride() >= 0.0) options->gap_tolerance = ShardGapOverride();
}

/// What a perf-smoke metric measures. tools/perf_compare.py ratio-gates
/// only seconds against the checked-in baseline and pairs only metrics of
/// one unit.
enum class MetricUnit { kSeconds, kCount, kRatio };

inline const char* MetricUnitName(MetricUnit unit) {
  switch (unit) {
    case MetricUnit::kSeconds:
      return "seconds";
    case MetricUnit::kCount:
      return "count";
    case MetricUnit::kRatio:
      break;
  }
  return "ratio";
}

/// One perf-smoke metric: a stable name, its value and its unit.
struct JsonMetric {
  std::string name;
  double value = 0.0;
  MetricUnit unit = MetricUnit::kSeconds;
};

inline std::vector<JsonMetric>& JsonMetrics() {
  static std::vector<JsonMetric> metrics;
  return metrics;
}

/// Records a metric for the --json perf artifact (no-op without --json=).
inline void RecordMetric(const std::string& name, double value,
                         MetricUnit unit) {
  if (!JsonPath().empty()) JsonMetrics().push_back({name, value, unit});
}

/// Writes {"metrics": [{"name": ..., "value": ..., "unit": ...}, ...]} to
/// the --json= path. Called by SAVG_BENCH_MAIN after the reproduction
/// tables printed; CI uploads the file and gates on regressions vs a
/// checked-in baseline (tools/perf_compare.py).
inline void WriteJsonMetrics() {
  if (JsonPath().empty()) return;
  std::ofstream out(JsonPath());
  if (!out) {
    std::cerr << "cannot write --json file " << JsonPath() << "\n";
    std::exit(2);
  }
  out << "{\n  \"metrics\": [\n";
  const auto& metrics = JsonMetrics();
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::string name = metrics[i].name;
    for (char& ch : name) {
      if (ch == '"' || ch == '\\') ch = '\'';
    }
    out << "    {\"name\": \"" << name << "\", \"value\": "
        << metrics[i].value << ", \"unit\": \""
        << MetricUnitName(metrics[i].unit) << "\""
        << (i + 1 < metrics.size() ? "},\n" : "}\n");
  }
  out << "  ]\n}\n";
}

/// Splits "avg,grf" and resolves each name against the registry (so typos
/// fail loudly, with the known names listed).
inline Result<std::vector<std::string>> ParseAlgoList(
    const std::string& csv) {
  std::vector<std::string> names;
  std::istringstream stream(csv);
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (token.empty()) continue;
    auto solver = SolverRegistry::Global().Find(token);
    if (!solver.ok()) return solver.status();
    names.push_back((*solver)->Name());
  }
  if (names.empty()) {
    return Status::InvalidArgument("--algos list is empty");
  }
  return names;
}

/// Strips --algos=/--workers= from argv (before google-benchmark sees
/// them) and records the overrides. Exits on malformed values.
inline void ConsumeFlags(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], "--algos=", 8) == 0) {
      auto parsed = ParseAlgoList(argv[i] + 8);
      if (!parsed.ok()) {
        std::cerr << parsed.status() << "\n";
        std::exit(2);
      }
      AlgoOverride() = std::move(parsed).value();
    } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      const char* value = argv[i] + 10;
      char* end = nullptr;
      const long workers = std::strtol(value, &end, 10);
      if (end == value || *end != '\0') {
        std::cerr << "--workers expects an integer, got \"" << value
                  << "\"\n";
        std::exit(2);
      }
      WorkerOverride() = static_cast<int>(workers);
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      if (argv[i][7] == '\0') {
        std::cerr << "--json expects a file path\n";
        std::exit(2);
      }
      JsonPath() = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      const char* value = argv[i] + 9;
      char* end = nullptr;
      const long shards = std::strtol(value, &end, 10);
      if (end == value || *end != '\0' || shards < 0) {
        std::cerr << "--shards expects a non-negative integer, got \""
                  << value << "\"\n";
        std::exit(2);
      }
      ShardsOverride() = static_cast<int>(shards);
    } else if (std::strncmp(argv[i], "--shard-gap=", 12) == 0) {
      const char* value = argv[i] + 12;
      char* end = nullptr;
      const double gap = std::strtod(value, &end);
      if (end == value || *end != '\0' || gap < 0.0) {
        std::cerr << "--shard-gap expects a non-negative number, got \""
                  << value << "\"\n";
        std::exit(2);
      }
      ShardGapOverride() = gap;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
}

/// The figure's default list, unless the user passed --algos=.
inline std::vector<std::string> AlgosOrDefault(
    std::vector<std::string> defaults) {
  return AlgoOverride().empty() ? std::move(defaults) : AlgoOverride();
}
inline std::vector<std::string> AlgosOrDefault(bool include_ip) {
  return AlgosOrDefault(PaperComparisonSolvers(include_ip));
}

/// Runs `algos` over the sweep (averaging `samples` instances per point,
/// fanned out through the parallel batch engine) and prints two tables:
/// mean scaled SAVG utility and mean seconds. Returns the utility rows
/// (per point) for further analysis.
///
/// Timing caveat: with the default --workers=0 (all cores) the per-run
/// timers observe whatever contention the concurrent tasks create. Pass
/// --workers=1 when the execution-time table must be contention-free /
/// comparable to the sequential harness.
inline std::vector<std::vector<AggregateRow>> PrintSweep(
    const std::string& title, const std::string& x_name,
    const std::vector<SweepPoint>& points, int samples,
    const std::vector<std::string>& algos, const SolverOptions& config) {
  std::vector<std::string> header = {x_name};
  for (const std::string& algo : algos) header.push_back(algo);
  Table utility(header);
  Table seconds(header);
  std::vector<std::vector<AggregateRow>> all_rows;
  // The previous point's relaxation bases warm-start the next point's
  // simplex solves (a lambda sweep keeps the LP shape; sweeps that change
  // the shape silently fall back to cold starts).
  SweepWarmStart warm;
  for (const SweepPoint& point : points) {
    Timer point_timer;
    auto rows = RunComparison(point.params, samples, algos, config,
                              WorkerOverride(), &warm);
    RecordMetric(title + " | " + x_name + "=" + point.label,
                 point_timer.ElapsedSeconds(), MetricUnit::kSeconds);
    if (!rows.ok()) {
      std::cerr << "sweep point " << point.label
                << " failed: " << rows.status() << "\n";
      all_rows.emplace_back();
      continue;
    }
    utility.NewRow().Add(point.label);
    seconds.NewRow().Add(point.label);
    for (const AggregateRow& row : *rows) {
      utility.Add(row.mean_scaled_total, 2);
      seconds.Add(row.mean_seconds, 3);
    }
    all_rows.push_back(std::move(rows).value());
  }
  utility.Print(title + " — total SAVG utility");
  seconds.Print(title + " — execution time (s)");
  // Per-phase simplex time across the whole sweep: the data the ROADMAP's
  // partial-pricing question is decided from (pricing-heavy profiles
  // justify candidate lists; ftran/btran-heavy ones do not).
  RecordMetric(title + " | lp_pricing_seconds",
               warm.lp_stats.pricing_seconds, MetricUnit::kSeconds);
  RecordMetric(title + " | lp_ratio_test_seconds",
               warm.lp_stats.ratio_test_seconds, MetricUnit::kSeconds);
  RecordMetric(title + " | lp_ftran_seconds", warm.lp_stats.ftran_seconds,
               MetricUnit::kSeconds);
  RecordMetric(title + " | lp_btran_seconds", warm.lp_stats.btran_seconds,
               MetricUnit::kSeconds);
  RecordMetric(title + " | lp_factor_seconds", warm.lp_stats.factor_seconds,
               MetricUnit::kSeconds);
  // Pivot-mix / candidate-list counters (PR 5): how much of the pricing
  // ran off the candidate list, and whether warm starts repaired dually.
  RecordMetric(title + " | lp_candidate_hits",
               static_cast<double>(warm.lp_stats.candidate_hits),
               MetricUnit::kCount);
  RecordMetric(title + " | lp_full_pricing_scans",
               static_cast<double>(warm.lp_stats.full_pricing_scans),
               MetricUnit::kCount);
  RecordMetric(title + " | lp_dual_pivots",
               static_cast<double>(warm.lp_stats.dual_pivots),
               MetricUnit::kCount);
  // Engine-speed counters (PR 6): eta-file state and refactorization
  // cadence — the observables of the adaptive refactorization policy.
  RecordMetric(title + " | lp_eta_count",
               static_cast<double>(warm.lp_stats.eta_count),
               MetricUnit::kCount);
  RecordMetric(title + " | lp_eta_nonzeros",
               static_cast<double>(warm.lp_stats.eta_nonzeros),
               MetricUnit::kCount);
  RecordMetric(title + " | lp_refactorizations",
               static_cast<double>(warm.lp_stats.refactorizations),
               MetricUnit::kCount);
  return all_rows;
}

/// Fraction formatter for ratio columns.
inline std::string Ratio(double value, double base) {
  return base > 0 ? FormatDouble(value / base, 3) : std::string("-");
}

/// Basename of argv[0], used to namespace per-binary metrics.
inline std::string BinaryName(const char* argv0) {
  const std::string path = argv0 != nullptr ? argv0 : "bench";
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace benchutil
}  // namespace savg

/// Prints the reproduction output (recording --json metrics), then runs
/// registered microbenchmarks.
#define SAVG_BENCH_MAIN(print_fn)                          \
  int main(int argc, char** argv) {                        \
    ::savg::benchutil::ConsumeFlags(&argc, argv);          \
    ::savg::Timer savg_bench_timer;                        \
    print_fn();                                            \
    ::savg::benchutil::RecordMetric(                       \
        ::savg::benchutil::BinaryName(argv[0]) + " | total_print_seconds", \
        savg_bench_timer.ElapsedSeconds(),                 \
        ::savg::benchutil::MetricUnit::kSeconds);          \
    ::savg::benchutil::WriteJsonMetrics();                 \
    ::benchmark::Initialize(&argc, argv);                  \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();                 \
    ::benchmark::Shutdown();                               \
    return 0;                                              \
  }
