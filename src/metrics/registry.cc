#include "metrics/registry.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/tracer.h"

namespace savg {

namespace {

/// log(kMax / kMin) — the histogram's geometric span.
const double kLogSpan = std::log(Histogram::kMax / Histogram::kMin);

}  // namespace

// Internal layout: slot 0 is a dedicated underflow bucket [0, kMin];
// slots 1..kBuckets are the kBuckets geometric buckets. Without the
// underflow slot, sub-kMin observations (nanosecond-scale stage timings)
// landed in the first geometric bucket, whose lower bound is kMin — which
// pushed interpolated quantiles up to >= kMin no matter how small the
// samples actually were.
Histogram::Histogram() : buckets_(kBuckets + 1) {}

int Histogram::BucketIndex(double seconds) {
  if (!(seconds > kMin)) return 0;
  if (seconds >= kMax) return kBuckets;
  const double t = std::log(seconds / kMin) / kLogSpan;
  const int index = 1 + static_cast<int>(t * kBuckets);
  return std::min(std::max(index, 1), kBuckets);
}

double Histogram::BucketLower(int index) {
  if (index <= 0) return 0.0;
  return kMin * std::exp(kLogSpan * (index - 1) / kBuckets);
}

double Histogram::BucketUpper(int index) {
  if (index <= 0) return kMin;
  return kMin * std::exp(kLogSpan * index / kBuckets);
}

void Histogram::Observe(double seconds) {
  buckets_[BucketIndex(seconds)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_nanos_.fetch_add(static_cast<int64_t>(seconds * 1e9),
                       std::memory_order_relaxed);
}

double Histogram::sum() const {
  return static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) *
         1e-9;
}

double Histogram::mean() const {
  const int64_t n = count();
  return n > 0 ? sum() / static_cast<double>(n) : 0.0;
}

double Histogram::QuantileOf(const std::vector<int64_t>& buckets, double q) {
  int64_t n = 0;
  for (int64_t c : buckets) n += c;
  if (n <= 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  // Rank of the q-quantile among the n observations (1-based).
  const double rank = q * static_cast<double>(n - 1) + 1.0;
  double below = 0.0;
  for (int i = 0; i < static_cast<int>(buckets.size()); ++i) {
    const double in_bucket = static_cast<double>(buckets[i]);
    if (in_bucket <= 0.0) continue;
    if (below + in_bucket >= rank) {
      // Interpolate inside the bucket's bounds (the underflow bucket
      // interpolates linearly over [0, kMin]).
      const double frac = (rank - below) / in_bucket;
      return BucketLower(i) + frac * (BucketUpper(i) - BucketLower(i));
    }
    below += in_bucket;
  }
  return BucketUpper(kBuckets);
}

double Histogram::Quantile(double q) const {
  std::vector<int64_t> counts(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return QuantileOf(counts, q);
}

namespace {

template <typename T>
T* FindOrCreate(std::vector<std::pair<std::string, std::unique_ptr<T>>>* v,
                const std::string& name) {
  for (auto& entry : *v) {
    if (entry.first == name) return entry.second.get();
  }
  v->emplace_back(name, std::make_unique<T>());
  return v->back().second.get();
}

}  // namespace

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return FindOrCreate(&counters_, name);
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return FindOrCreate(&gauges_, name);
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return FindOrCreate(&histograms_, name);
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  std::vector<MetricSample> samples;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& entry : counters_) {
      samples.push_back(
          {entry.first, static_cast<double>(entry.second->value())});
    }
    for (const auto& entry : gauges_) {
      samples.push_back(
          {entry.first, static_cast<double>(entry.second->value())});
    }
    for (const auto& entry : histograms_) {
      const Histogram& h = *entry.second;
      samples.push_back(
          {entry.first + ".count", static_cast<double>(h.count())});
      samples.push_back({entry.first + ".mean", h.mean()});
      samples.push_back({entry.first + ".p50", h.Quantile(0.5)});
      samples.push_back({entry.first + ".p99", h.Quantile(0.99)});
    }
  }
  std::sort(samples.begin(), samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return samples;
}

std::string MetricsRegistry::TextDump() const {
  std::ostringstream out;
  out.precision(9);
  for (const MetricSample& sample : Snapshot()) {
    out << sample.name << " " << sample.value << "\n";
  }
  return out.str();
}

namespace {

std::string PromName(const std::string& name) {
  std::string out = "savg_";
  for (char ch : name) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '_';
    out += ok ? ch : '_';
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::JsonDump() const {
  std::ostringstream out;
  out.precision(9);
  out << "{\"metrics\": [";
  bool first = true;
  for (const MetricSample& sample : Snapshot()) {
    if (!first) out << ", ";
    first = false;
    out << "{\"name\": \"" << JsonEscape(sample.name)
        << "\", \"value\": " << sample.value << "}";
  }
  out << "], \"histograms\": [";
  first = true;
  for (const auto& [name, hist] : Histograms()) {
    if (!first) out << ", ";
    first = false;
    out << "{\"name\": \"" << JsonEscape(name)
        << "\", \"count\": " << hist->count() << ", \"sum\": " << hist->sum()
        << ", \"buckets\": [";
    bool first_bucket = true;
    for (int i = 0; i <= Histogram::kBuckets; ++i) {
      const int64_t c = hist->BucketCount(i);
      if (c == 0) continue;
      if (!first_bucket) out << ", ";
      first_bucket = false;
      out << "{\"le\": " << Histogram::BucketUpper(i)
          << ", \"count\": " << c << "}";
    }
    out << "]}";
  }
  out << "]}";
  return out.str();
}

std::string MetricsRegistry::PrometheusDump() const {
  std::ostringstream out;
  out.precision(9);
  for (const auto& [name, counter] : Counters()) {
    const std::string prom = PromName(name);
    out << "# TYPE " << prom << " counter\n";
    out << prom << " " << counter->value() << "\n";
  }
  for (const auto& [name, gauge] : Gauges()) {
    const std::string prom = PromName(name);
    out << "# TYPE " << prom << " gauge\n";
    out << prom << " " << gauge->value() << "\n";
  }
  for (const auto& [name, hist] : Histograms()) {
    const std::string prom = PromName(name) + "_seconds";
    out << "# TYPE " << prom << " histogram\n";
    // Cumulative buckets over the non-empty slots only (300 geometric
    // buckets would be scrape noise; cumulative counts stay exact).
    int64_t cumulative = 0;
    for (int i = 0; i <= Histogram::kBuckets; ++i) {
      const int64_t c = hist->BucketCount(i);
      if (c == 0) continue;
      cumulative += c;
      out << prom << "_bucket{le=\"" << Histogram::BucketUpper(i)
          << "\"} " << cumulative << "\n";
    }
    out << prom << "_bucket{le=\"+Inf\"} " << hist->count() << "\n";
    out << prom << "_sum " << hist->sum() << "\n";
    out << prom << "_count " << hist->count() << "\n";
  }
  return out.str();
}

std::vector<std::pair<std::string, Counter*>> MetricsRegistry::Counters()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, Counter*>> out;
  out.reserve(counters_.size());
  for (const auto& entry : counters_) {
    out.emplace_back(entry.first, entry.second.get());
  }
  return out;
}

std::vector<std::pair<std::string, Gauge*>> MetricsRegistry::Gauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, Gauge*>> out;
  out.reserve(gauges_.size());
  for (const auto& entry : gauges_) {
    out.emplace_back(entry.first, entry.second.get());
  }
  return out;
}

std::vector<std::pair<std::string, Histogram*>> MetricsRegistry::Histograms()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, Histogram*>> out;
  out.reserve(histograms_.size());
  for (const auto& entry : histograms_) {
    out.emplace_back(entry.first, entry.second.get());
  }
  return out;
}

}  // namespace savg
