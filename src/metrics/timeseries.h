// Windowed time-series view over a MetricsRegistry.
//
// The registry's counters and histograms are cumulative-forever, which
// answers "how much since boot" but not "what is happening right now".
// MetricsTimeSeries periodically captures the registry, stores per-window
// *deltas* (counter increments, histogram count/sum/bucket increments)
// plus gauge levels in a fixed-size ring of windows, and can aggregate
// the last N windows into rates, windowed means and windowed p50/p99.
//
// The capture cadence is owned by the caller (ServeServer runs a capture
// thread at --metrics_interval; tests call CaptureNow() directly with an
// explicit interval). Aggregation merges sparse bucket deltas back into a
// full bucket array and reuses Histogram::QuantileOf, so windowed
// quantiles have exactly the same resolution as lifetime ones.

#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "metrics/registry.h"

namespace savg {

/// Aggregate of the last N capture windows (see MetricsTimeSeries).
struct WindowedSnapshot {
  struct CounterRow {
    std::string name;
    int64_t delta = 0;
    double rate = 0.0;  ///< delta / seconds
  };
  struct GaugeRow {
    std::string name;
    int64_t last = 0;  ///< value at the most recent capture
    int64_t max = 0;   ///< max across the aggregated captures
  };
  struct HistogramRow {
    std::string name;
    int64_t count = 0;
    double rate = 0.0;  ///< count / seconds
    double mean = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
  };

  int windows = 0;       ///< how many capture windows were merged
  double seconds = 0.0;  ///< wall time the merged windows cover

  std::vector<CounterRow> counters;
  std::vector<GaugeRow> gauges;
  std::vector<HistogramRow> histograms;

  /// Lookup helpers; all return 0 when the metric is absent.
  int64_t CounterDelta(const std::string& name) const;
  double CounterRate(const std::string& name) const;
  int64_t GaugeLast(const std::string& name) const;
  int64_t GaugeMax(const std::string& name) const;
  const HistogramRow* FindHistogram(const std::string& name) const;

  std::string JsonDump() const;
};

class MetricsTimeSeries {
 public:
  /// `windows` is the ring capacity: how many capture windows are
  /// retained.
  explicit MetricsTimeSeries(MetricsRegistry* registry, int windows = 256);

  /// Captures one window of deltas since the previous capture (or since
  /// construction for the first). `interval_seconds` overrides the
  /// measured wall interval when >= 0 — tests use this to make rates
  /// deterministic. Thread-safe.
  void CaptureNow(double interval_seconds = -1.0);

  /// Merges the most recent `n` windows (clamped to what the ring holds).
  WindowedSnapshot Aggregate(int n) const;

  int64_t capture_count() const;

 private:
  struct HistogramDelta {
    int64_t count = 0;
    double sum = 0.0;
    /// Sparse (bucket index, delta) pairs — most captures touch a handful
    /// of the 301 slots.
    std::vector<std::pair<int, int64_t>> buckets;
  };
  struct Window {
    double seconds = 0.0;
    std::unordered_map<std::string, int64_t> counter_deltas;
    std::unordered_map<std::string, int64_t> gauge_values;
    std::unordered_map<std::string, HistogramDelta> histogram_deltas;
  };
  struct HistogramPrev {
    int64_t count = 0;
    double sum = 0.0;
    std::vector<int64_t> buckets;
  };

  MetricsRegistry* registry_;
  const int windows_;

  mutable std::mutex mu_;
  std::deque<Window> ring_;
  int64_t captures_ = 0;
  std::chrono::steady_clock::time_point last_capture_;
  std::unordered_map<std::string, int64_t> prev_counters_;
  std::unordered_map<std::string, HistogramPrev> prev_histograms_;
};

}  // namespace savg
