#include "obs/health.h"

#include <algorithm>
#include <sstream>

#include "obs/structured_log.h"

namespace savg {

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

HealthMonitor::HealthMonitor(HealthOptions options)
    : options_(options) {}

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
  if (window.CounterRate("serve.shed") > options_.shed_rate_threshold) {
    active.push_back("shed_rate");
  }
  if (options_.queue_capacity > 0 &&
      static_cast<double>(window.GaugeMax("serve.queue_depth")) >
          options_.queue_saturation_fraction *
              static_cast<double>(options_.queue_capacity)) {
    active.push_back("queue_saturation");
  }
  if (window.CounterRate("trace.slow") > options_.slow_rate_threshold) {
    active.push_back("slow_request_rate");
  }
  if (window.GaugeLast("lp.eta_chain") > options_.eta_chain_limit) {
    active.push_back("eta_chain_growth");
  }
  if (window.CounterRate("session.full_rerounds") >
      options_.drift_reround_rate_threshold) {
    active.push_back("drift_budget");
  }
  if (options_.changelog_lag_limit > 0 &&
      window.GaugeMax("durability.changelog_lag") >
          options_.changelog_lag_limit) {
    active.push_back("changelog_lag");
  }
  const WindowedSnapshot::HistogramRow* resolve =
      window.FindHistogram("serve.latency.resolve");
  if (resolve != nullptr && resolve->count >= options_.latency_min_count) {
    bool regressed = false;
    if (latency_ewma_ready_ &&
        resolve->mean > options_.latency_regression_factor * latency_ewma_) {
      active.push_back("resolve_latency_regression");
      regressed = true;
    }
    if (!regressed) {
      // Baseline absorbs only non-regressed windows, so a sustained
      // regression cannot normalize itself away.
      latency_ewma_ =
          latency_ewma_ready_
              ? options_.latency_ewma_alpha * resolve->mean +
                    (1.0 - options_.latency_ewma_alpha) * latency_ewma_
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
    if (bad_streak_ >= options_.degrade_after) {
      level_ = HealthLevel::kDegraded;
      reasons_ = active;
    }
  } else {
    if (clean_streak_ >= options_.recover_after) {
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
