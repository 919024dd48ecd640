#include "obs/health.h"

#include <algorithm>
#include <sstream>

#include "obs/structured_log.h"

namespace savg {
namespace {

/// Shed requests per second before the shed rule fires.
constexpr double kShedRateThreshold = 5.0;
/// The saturation rule fires when the windowed max queue depth exceeds
/// this fraction of the queue capacity.
constexpr double kQueueSaturationFraction = 0.9;
/// Slow-trace records (obs/tracer.h threshold) per second.
constexpr double kSlowRateThreshold = 1.0;
/// Eta-file chain length (lp.eta_chain gauge) above which the adaptive
/// refactorization rule is considered to have lost control.
constexpr int64_t kEtaChainLimit = 1024;
/// Resolve-latency regression: window mean vs a cross-window EWMA
/// baseline. Windows with fewer than kLatencyMinCount resolves are
/// ignored; the EWMA only absorbs non-regressed windows so a sustained
/// regression stays visible.
constexpr double kLatencyRegressionFactor = 3.0;
constexpr double kLatencyEwmaAlpha = 0.2;
constexpr int64_t kLatencyMinCount = 5;
/// Un-snapshotted commands (durability.changelog_lag gauge, windowed max)
/// above which recovery replay time is out of budget: the snapshot
/// scheduler is falling behind the command stream. Without durability
/// the gauge is absent and reads 0.
constexpr int64_t kChangelogLagLimit = 4096;
/// Consecutive bad windows to leave ok / clean windows to return to it.
constexpr int kDegradeAfter = 2;
constexpr int kRecoverAfter = 2;

}  // namespace

const char* HealthLevelName(HealthLevel level) {
  switch (level) {
    case HealthLevel::kOk:
      return "ok";
    case HealthLevel::kDegraded:
      return "degraded";
    case HealthLevel::kUnhealthy:
      return "unhealthy";
  }
  return "unknown";
}

HealthMonitor::HealthMonitor(int64_t queue_capacity)
    : queue_capacity_(queue_capacity) {}

HealthVerdict HealthMonitor::Evaluate(const WindowedSnapshot& window) {
  std::lock_guard<std::mutex> lock(mu_);
  ++evaluations_;

  std::vector<std::string> active;
  bool unhealthy_now = false;

  if (window.CounterDelta("verify.fail") > 0) {
    active.push_back("verify_failure");
    unhealthy_now = true;
  }
  if (window.GaugeLast("durability.journal_failed") > 0) {
    active.push_back("journal_failed");
    unhealthy_now = true;
  }
  if (window.CounterRate("serve.shed") > kShedRateThreshold) {
    active.push_back("shed_rate");
  }
  if (queue_capacity_ > 0 &&
      static_cast<double>(window.GaugeMax("serve.queue_depth")) >
          kQueueSaturationFraction * static_cast<double>(queue_capacity_)) {
    active.push_back("queue_saturation");
  }
  if (window.CounterRate("trace.slow") > kSlowRateThreshold) {
    active.push_back("slow_request_rate");
  }
  if (window.GaugeLast("lp.eta_chain") > kEtaChainLimit) {
    active.push_back("eta_chain_growth");
  }
  if (window.GaugeMax("durability.changelog_lag") > kChangelogLagLimit) {
    active.push_back("changelog_lag");
  }
  const WindowedSnapshot::HistogramRow* resolve =
      window.FindHistogram("serve.latency.resolve");
  if (resolve != nullptr && resolve->count >= kLatencyMinCount) {
    bool regressed = false;
    if (latency_ewma_ready_ &&
        resolve->mean > kLatencyRegressionFactor * latency_ewma_) {
      active.push_back("resolve_latency_regression");
      regressed = true;
    }
    if (!regressed) {
      // Baseline absorbs only non-regressed windows, so a sustained
      // regression cannot normalize itself away.
      latency_ewma_ =
          latency_ewma_ready_
              ? kLatencyEwmaAlpha * resolve->mean +
                    (1.0 - kLatencyEwmaAlpha) * latency_ewma_
              : resolve->mean;
      latency_ewma_ready_ = true;
    }
  }

  if (active.empty()) {
    ++clean_streak_;
    bad_streak_ = 0;
  } else {
    ++bad_streak_;
    clean_streak_ = 0;
  }

  const HealthLevel before = level_;
  if (unhealthy_now) {
    // A verification failure means a served answer was wrong, and a
    // fail-stopped journal refuses every command — trip immediately, no
    // hysteresis on the way down.
    level_ = HealthLevel::kUnhealthy;
    reasons_ = active;
  } else if (level_ == HealthLevel::kOk) {
    if (bad_streak_ >= kDegradeAfter) {
      level_ = HealthLevel::kDegraded;
      reasons_ = active;
    }
  } else {
    if (clean_streak_ >= kRecoverAfter) {
      level_ = HealthLevel::kOk;
      reasons_.clear();
    } else if (!active.empty()) {
      reasons_ = active;  // keep the freshest reason set while degraded
    }
  }

  if (level_ != before) {
    std::string joined;
    for (const std::string& reason : reasons_) {
      if (!joined.empty()) joined += ",";
      joined += reason;
    }
    LogEvent(level_ == HealthLevel::kOk ? LogLevel::kInfo : LogLevel::kWarning,
             "health.transition",
             LogFields()
                 .Add("from", HealthLevelName(before))
                 .Add("to", HealthLevelName(level_))
                 .Add("reasons", joined)
                 .Add("evaluations", evaluations_));
  }

  HealthVerdict verdict;
  verdict.level = level_;
  verdict.reasons = reasons_;
  verdict.evaluations = evaluations_;
  return verdict;
}

HealthVerdict HealthMonitor::verdict() const {
  std::lock_guard<std::mutex> lock(mu_);
  HealthVerdict verdict;
  verdict.level = level_;
  verdict.reasons = reasons_;
  verdict.evaluations = evaluations_;
  return verdict;
}

std::string HealthMonitor::JsonDump() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out.precision(9);
  out << "{\"status\": \"" << HealthLevelName(level_) << "\", \"reasons\": [";
  bool first = true;
  for (const std::string& reason : reasons_) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << reason << "\"";
  }
  out << "], \"evaluations\": " << evaluations_
      << ", \"bad_streak\": " << bad_streak_
      << ", \"clean_streak\": " << clean_streak_;
  if (latency_ewma_ready_) {
    out << ", \"resolve_latency_ewma_ms\": " << latency_ewma_ * 1e3;
  }
  out << "}";
  return out.str();
}

}  // namespace savg
