#include "metrics/timeseries.h"

#include <algorithm>
#include <sstream>

#include "obs/tracer.h"

namespace savg {

int64_t WindowedSnapshot::CounterDelta(const std::string& name) const {
  for (const CounterRow& row : counters) {
    if (row.name == name) return row.delta;
  }
  return 0;
}

double WindowedSnapshot::CounterRate(const std::string& name) const {
  for (const CounterRow& row : counters) {
    if (row.name == name) return row.rate;
  }
  return 0.0;
}

int64_t WindowedSnapshot::GaugeLast(const std::string& name) const {
  for (const GaugeRow& row : gauges) {
    if (row.name == name) return row.last;
  }
  return 0;
}

int64_t WindowedSnapshot::GaugeMax(const std::string& name) const {
  for (const GaugeRow& row : gauges) {
    if (row.name == name) return row.max;
  }
  return 0;
}

const WindowedSnapshot::HistogramRow* WindowedSnapshot::FindHistogram(
    const std::string& name) const {
  for (const HistogramRow& row : histograms) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

std::string WindowedSnapshot::JsonDump() const {
  std::ostringstream out;
  out.precision(9);
  out << "{\"windows\": " << windows << ", \"seconds\": " << seconds
      << ", \"counters\": [";
  bool first = true;
  for (const CounterRow& row : counters) {
    if (!first) out << ", ";
    first = false;
    out << "{\"name\": \"" << JsonEscape(row.name) << "\", \"delta\": "
        << row.delta << ", \"rate\": " << row.rate << "}";
  }
  out << "], \"gauges\": [";
  first = true;
  for (const GaugeRow& row : gauges) {
    if (!first) out << ", ";
    first = false;
    out << "{\"name\": \"" << JsonEscape(row.name) << "\", \"last\": "
        << row.last << ", \"max\": " << row.max << "}";
  }
  out << "], \"histograms\": [";
  first = true;
  for (const HistogramRow& row : histograms) {
    if (!first) out << ", ";
    first = false;
    out << "{\"name\": \"" << JsonEscape(row.name) << "\", \"count\": "
        << row.count << ", \"rate\": " << row.rate
        << ", \"mean\": " << row.mean << ", \"p50\": " << row.p50
        << ", \"p99\": " << row.p99 << "}";
  }
  out << "]}";
  return out.str();
}

MetricsTimeSeries::MetricsTimeSeries(MetricsRegistry* registry, int windows)
    : registry_(registry),
      windows_(windows),
      last_capture_(std::chrono::steady_clock::now()) {}

void MetricsTimeSeries::CaptureNow(double interval_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto now = std::chrono::steady_clock::now();
  double seconds = interval_seconds;
  if (seconds < 0.0) {
    seconds = std::chrono::duration<double>(now - last_capture_).count();
  }
  last_capture_ = now;

  Window window;
  window.seconds = std::max(seconds, 1e-9);

  for (const auto& [name, counter] : registry_->Counters()) {
    const int64_t cur = counter->value();
    const int64_t delta = cur - prev_counters_[name];
    prev_counters_[name] = cur;
    if (delta != 0) window.counter_deltas[name] = delta;
  }
  for (const auto& [name, gauge] : registry_->Gauges()) {
    window.gauge_values[name] = gauge->value();
  }
  for (const auto& [name, hist] : registry_->Histograms()) {
    HistogramPrev& prev = prev_histograms_[name];
    if (prev.buckets.empty()) prev.buckets.resize(Histogram::kBuckets + 1, 0);
    const int64_t cur_count = hist->count();
    if (cur_count == prev.count) continue;
    HistogramDelta delta;
    delta.count = cur_count - prev.count;
    const double cur_sum = hist->sum();
    delta.sum = cur_sum - prev.sum;
    prev.count = cur_count;
    prev.sum = cur_sum;
    for (int i = 0; i <= Histogram::kBuckets; ++i) {
      const int64_t c = hist->BucketCount(i);
      if (c != prev.buckets[i]) {
        delta.buckets.emplace_back(i, c - prev.buckets[i]);
        prev.buckets[i] = c;
      }
    }
    window.histogram_deltas[name] = std::move(delta);
  }

  ring_.push_back(std::move(window));
  while (ring_.size() > static_cast<size_t>(std::max(windows_, 1))) {
    ring_.pop_front();
  }
  ++captures_;
}

WindowedSnapshot MetricsTimeSeries::Aggregate(int n) const {
  std::lock_guard<std::mutex> lock(mu_);
  WindowedSnapshot snap;
  if (ring_.empty()) return snap;
  const size_t count =
      std::min(static_cast<size_t>(std::max(n, 1)), ring_.size());
  const size_t begin = ring_.size() - count;

  std::unordered_map<std::string, int64_t> counter_deltas;
  std::unordered_map<std::string, int64_t> gauge_max;
  struct HistAgg {
    int64_t count = 0;
    double sum = 0.0;
    std::vector<int64_t> buckets;
  };
  std::unordered_map<std::string, HistAgg> hists;

  for (size_t w = begin; w < ring_.size(); ++w) {
    const Window& window = ring_[w];
    snap.seconds += window.seconds;
    ++snap.windows;
    for (const auto& [name, delta] : window.counter_deltas) {
      counter_deltas[name] += delta;
    }
    for (const auto& [name, value] : window.gauge_values) {
      auto it = gauge_max.find(name);
      if (it == gauge_max.end()) {
        gauge_max[name] = value;
      } else {
        it->second = std::max(it->second, value);
      }
    }
    for (const auto& [name, delta] : window.histogram_deltas) {
      HistAgg& agg = hists[name];
      if (agg.buckets.empty()) agg.buckets.resize(Histogram::kBuckets + 1, 0);
      agg.count += delta.count;
      agg.sum += delta.sum;
      for (const auto& [index, c] : delta.buckets) agg.buckets[index] += c;
    }
  }
  const double seconds = std::max(snap.seconds, 1e-9);

  for (const auto& [name, delta] : counter_deltas) {
    snap.counters.push_back(
        {name, delta, static_cast<double>(delta) / seconds});
  }
  const Window& last = ring_.back();
  for (const auto& [name, max_value] : gauge_max) {
    WindowedSnapshot::GaugeRow row;
    row.name = name;
    row.max = max_value;
    auto it = last.gauge_values.find(name);
    row.last = it != last.gauge_values.end() ? it->second : max_value;
    snap.gauges.push_back(row);
  }
  for (const auto& [name, agg] : hists) {
    WindowedSnapshot::HistogramRow row;
    row.name = name;
    row.count = agg.count;
    row.rate = static_cast<double>(agg.count) / seconds;
    row.mean =
        agg.count > 0 ? agg.sum / static_cast<double>(agg.count) : 0.0;
    row.p50 = Histogram::QuantileOf(agg.buckets, 0.5);
    row.p99 = Histogram::QuantileOf(agg.buckets, 0.99);
    snap.histograms.push_back(row);
  }

  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

int64_t MetricsTimeSeries::capture_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return captures_;
}

}  // namespace savg
