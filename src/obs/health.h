// Windowed health rule engine: turns time-series metrics into an
// ok/degraded/unhealthy verdict with reasons.
//
// ServeServer evaluates the monitor once per metrics capture window
// against the one-window aggregate; the verdict is served at GET /health
// and polled by `svgic_cli top`. Rules fire on windowed signals (rates
// and per-window quantiles), never lifetime counters, so a server that
// shed requests an hour ago reads healthy now.
//
// Hysteresis: leaving `ok` takes two consecutive bad windows and
// returning takes two consecutive clean ones, so one noisy window cannot
// flap the verdict. The exceptions are a self-verification failure
// (verify.fail incremented) and a fail-stopped journal
// (durability.journal_failed > 0), which trip `unhealthy` immediately —
// a served infeasible answer or a session refusing every command is never
// noise — though recovery still follows the normal clean-window path.
//
// The rule thresholds are fixed (README "Monitoring" documents them); the
// only input is the admission queue capacity.
//
// Verdict transitions are logged as structured `health.transition`
// events for log-based alerting.

#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "metrics/timeseries.h"

namespace savg {

enum class HealthLevel { kOk, kDegraded, kUnhealthy };

const char* HealthLevelName(HealthLevel level);

struct HealthVerdict {
  HealthLevel level = HealthLevel::kOk;
  /// Rule names active when the verdict left ok (sticky until recovery).
  std::vector<std::string> reasons;
  int64_t evaluations = 0;
};

class HealthMonitor {
 public:
  /// `queue_capacity` is the admission queue bound the queue_saturation
  /// rule compares the windowed max queue depth against; 0 disables the
  /// rule.
  explicit HealthMonitor(int64_t queue_capacity = 0);

  /// Feeds one capture window; returns the post-evaluation verdict.
  HealthVerdict Evaluate(const WindowedSnapshot& window);

  HealthVerdict verdict() const;

  /// {"status": "ok", "reasons": [...], ...} for GET /health.
  std::string JsonDump() const;

 private:
  const int64_t queue_capacity_;

  mutable std::mutex mu_;
  HealthLevel level_ = HealthLevel::kOk;
  std::vector<std::string> reasons_;
  int bad_streak_ = 0;
  int clean_streak_ = 0;
  int64_t evaluations_ = 0;
  double latency_ewma_ = 0.0;
  bool latency_ewma_ready_ = false;
};

}  // namespace savg
