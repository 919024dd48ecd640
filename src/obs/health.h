// Windowed health rule engine: turns time-series metrics into an
// ok/degraded/unhealthy verdict with reasons.
//
// ServeServer evaluates the monitor once per metrics capture window
// against the one-window aggregate; the verdict is served at GET /health
// and polled by `svgic_cli top`. Rules fire on windowed signals (rates
// and per-window quantiles), never lifetime counters, so a server that
// shed requests an hour ago reads healthy now.
//
// Hysteresis: leaving `ok` takes `degrade_after` consecutive bad windows
// and returning takes `recover_after` consecutive clean ones, so one
// noisy window cannot flap the verdict. The exceptions are a
// self-verification failure (verify.fail incremented) and a fail-stopped
// journal (durability.journal_failed > 0), which trip `unhealthy`
// immediately — a served infeasible answer or a session refusing every
// command is never noise — though recovery still follows the normal
// clean-window path.
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

struct HealthOptions {
  /// Shed requests per second before the shed rule fires.
  double shed_rate_threshold = 5.0;
  /// Admission queue capacity; 0 disables the saturation rule. The rule
  /// fires when the windowed max queue depth exceeds
  /// `queue_saturation_fraction` of this.
  int64_t queue_capacity = 0;
  double queue_saturation_fraction = 0.9;
  /// Slow-trace records (obs/tracer.h threshold) per second.
  double slow_rate_threshold = 1.0;
  /// Eta-file chain length (lp.eta_chain gauge) above which the adaptive
  /// refactorization policy is considered to have lost control.
  int64_t eta_chain_limit = 1024;
  /// Full re-rounds per second (all drift-triggered); sustained firing
  /// means incremental serving is thrashing above its drift budget.
  double drift_reround_rate_threshold = 0.5;
  /// Resolve-latency regression: window mean vs a cross-window EWMA
  /// baseline. Windows with fewer than `latency_min_count` resolves are
  /// ignored; the EWMA only absorbs non-regressed windows so a sustained
  /// regression stays visible.
  double latency_regression_factor = 3.0;
  double latency_ewma_alpha = 0.2;
  int64_t latency_min_count = 5;
  /// Un-snapshotted commands (durability.changelog_lag gauge, windowed
  /// max) above which recovery replay time is considered out of budget —
  /// the snapshot scheduler is falling behind the command stream. 0
  /// disables (also the right setting when durability is off).
  int64_t changelog_lag_limit = 4096;
  /// Hysteresis: consecutive bad windows to leave ok / clean windows to
  /// return to it.
  int degrade_after = 2;
  int recover_after = 2;
};

struct HealthVerdict {
  HealthLevel level = HealthLevel::kOk;
  /// Rule names active when the verdict left ok (sticky until recovery).
  std::vector<std::string> reasons;
  int64_t evaluations = 0;
};

class HealthMonitor {
 public:
  explicit HealthMonitor(HealthOptions options = HealthOptions());

  /// Feeds one capture window; returns the post-evaluation verdict.
  HealthVerdict Evaluate(const WindowedSnapshot& window);

  HealthVerdict verdict() const;

  /// {"status": "ok", "reasons": [...], ...} for GET /health.
  std::string JsonDump() const;

 private:
  HealthOptions options_;

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
