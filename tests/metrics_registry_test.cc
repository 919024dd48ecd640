// Tests of the central serving-metrics registry (src/metrics/registry.h):
// concurrent counter/gauge updates, streaming histogram quantile
// accuracy, handle stability across growth, and the dump formats.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "metrics/registry.h"
#include "metrics/timeseries.h"

namespace savg {
namespace {

TEST(MetricsRegistryTest, FindOrCreateReturnsStableHandles) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("a");
  a->Increment(3);
  // Creating many more metrics must not invalidate the first handle.
  for (int i = 0; i < 200; ++i) {
    registry.GetCounter("c" + std::to_string(i));
    registry.GetGauge("g" + std::to_string(i));
    registry.GetHistogram("h" + std::to_string(i));
  }
  EXPECT_EQ(registry.GetCounter("a"), a);
  EXPECT_EQ(a->value(), 3);
  // Same name, different kind: distinct metric objects.
  EXPECT_NE(static_cast<void*>(registry.GetGauge("a")),
            static_cast<void*>(a));
}

TEST(MetricsRegistryTest, ConcurrentIncrementsAreExact) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("hits");
  Gauge* gauge = registry.GetGauge("depth");
  Histogram* histogram = registry.GetHistogram("latency");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment();
        gauge->Increment();
        gauge->Decrement();
        histogram->Observe(1e-3);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter->value(), kThreads * kPerThread);
  EXPECT_EQ(gauge->value(), 0);
  EXPECT_EQ(histogram->count(), kThreads * kPerThread);
  EXPECT_NEAR(histogram->mean(), 1e-3, 1e-6);
}

TEST(MetricsRegistryTest, HistogramQuantilesTrackUniformSample) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("latency");
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> sample(0.001, 0.101);
  for (int i = 0; i < 200000; ++i) histogram->Observe(sample(rng));
  // Geometric buckets give ~7% relative resolution; allow 15%.
  const double p50 = histogram->Quantile(0.5);
  const double p99 = histogram->Quantile(0.99);
  EXPECT_NEAR(p50, 0.051, 0.15 * 0.051);
  EXPECT_NEAR(p99, 0.100, 0.15 * 0.100);
  EXPECT_LT(p50, p99);
  EXPECT_NEAR(histogram->mean(), 0.051, 0.002);
}

TEST(MetricsRegistryTest, HistogramClampsOutOfRangeObservations) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("latency");
  histogram->Observe(0.0);       // below kMin
  histogram->Observe(1e9);       // above kMax
  histogram->Observe(-1.0);      // nonsense input
  EXPECT_EQ(histogram->count(), 3);
  const double p99 = histogram->Quantile(0.99);
  EXPECT_GE(p99, 0.0);
  EXPECT_LE(p99, 2.0 * Histogram::kMax);
}

// Regression: sub-microsecond observations used to land in the first
// geometric bucket [kMin, ~1.07 kMin) — indistinguishable from real
// 100 ns samples, they dragged quantiles of all-fast histograms up to
// kMin's bucket upper bound. They now go to a dedicated underflow bucket
// whose upper bound is kMin itself.
TEST(MetricsRegistryTest, HistogramUnderflowBucketKeepsFastQuantilesLow) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("latency");
  for (int i = 0; i < 1000; ++i) histogram->Observe(1e-9);  // ~1 ns
  EXPECT_EQ(histogram->count(), 1000);
  EXPECT_LE(histogram->Quantile(0.5), Histogram::kMin);
  EXPECT_LE(histogram->Quantile(0.99), Histogram::kMin);
  // A mixed stream still ranks underflow below genuine samples.
  for (int i = 0; i < 3000; ++i) histogram->Observe(1e-3);
  EXPECT_NEAR(histogram->Quantile(0.9), 1e-3, 0.15 * 1e-3);
  EXPECT_LE(histogram->Quantile(0.1), Histogram::kMin);
}

TEST(MetricsRegistryTest, SnapshotExpandsHistograms) {
  MetricsRegistry registry;
  registry.GetCounter("serve.admitted")->Increment(5);
  registry.GetGauge("serve.queue_depth")->Set(2);
  Histogram* histogram = registry.GetHistogram("serve.latency.resolve");
  for (int i = 0; i < 100; ++i) histogram->Observe(0.01);

  bool saw_counter = false, saw_gauge = false;
  bool saw_count = false, saw_p50 = false, saw_p99 = false, saw_mean = false;
  for (const MetricSample& sample : registry.Snapshot()) {
    if (sample.name == "serve.admitted") {
      saw_counter = true;
      EXPECT_EQ(sample.value, 5.0);
    } else if (sample.name == "serve.queue_depth") {
      saw_gauge = true;
      EXPECT_EQ(sample.value, 2.0);
    } else if (sample.name == "serve.latency.resolve.count") {
      saw_count = true;
      EXPECT_EQ(sample.value, 100.0);
    } else if (sample.name == "serve.latency.resolve.p50") {
      saw_p50 = true;
      EXPECT_NEAR(sample.value, 0.01, 0.0015);
    } else if (sample.name == "serve.latency.resolve.p99") {
      saw_p99 = true;
    } else if (sample.name == "serve.latency.resolve.mean") {
      saw_mean = true;
      EXPECT_NEAR(sample.value, 0.01, 1e-5);
    }
  }
  EXPECT_TRUE(saw_counter && saw_gauge);
  EXPECT_TRUE(saw_count && saw_p50 && saw_p99 && saw_mean);

  const std::string text = registry.TextDump();
  EXPECT_NE(text.find("serve.admitted"), std::string::npos);
  const std::string json = registry.JsonDump();
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("serve.latency.resolve.p99"), std::string::npos);
}

TEST(MetricsRegistryTest, HistogramJsonDumpCarriesSumCountAndBuckets) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("latency");
  for (int i = 0; i < 10; ++i) histogram->Observe(0.01);
  for (int i = 0; i < 5; ++i) histogram->Observe(0.05);

  const std::string json = registry.JsonDump();
  // Full histogram object: name + exact count and sum, not just the
  // flattened .count/.p50/.p99 pseudo-metrics.
  EXPECT_NE(json.find("\"histograms\": [{\"name\": \"latency\", "
                      "\"count\": 15, \"sum\": 0.35"),
            std::string::npos)
      << json;
  // Bucket objects carry their geometric upper bound; the two observed
  // values land in two distinct buckets whose counts sum to 15.
  const size_t buckets_pos = json.find("\"buckets\": [");
  ASSERT_NE(buckets_pos, std::string::npos);
  int64_t total = 0;
  int buckets_seen = 0;
  size_t pos = buckets_pos;
  while ((pos = json.find("{\"le\": ", pos)) != std::string::npos) {
    const double le = std::strtod(json.c_str() + pos + 7, nullptr);
    EXPECT_GT(le, 0.0);
    const size_t count_pos = json.find("\"count\": ", pos);
    ASSERT_NE(count_pos, std::string::npos);
    total += std::strtoll(json.c_str() + count_pos + 9, nullptr, 10);
    ++buckets_seen;
    ++pos;
  }
  EXPECT_EQ(buckets_seen, 2);
  EXPECT_EQ(total, 15);
}

TEST(MetricsRegistryTest, PrometheusDumpExposesAllKinds) {
  MetricsRegistry registry;
  registry.GetCounter("serve.admitted")->Increment(5);
  registry.GetGauge("serve.queue_depth")->Set(2);
  Histogram* histogram = registry.GetHistogram("serve.latency.resolve");
  for (int i = 0; i < 10; ++i) histogram->Observe(0.01);
  for (int i = 0; i < 5; ++i) histogram->Observe(0.05);

  const std::string prom = registry.PrometheusDump();
  EXPECT_NE(prom.find("# TYPE savg_serve_admitted counter\n"
                      "savg_serve_admitted 5\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("# TYPE savg_serve_queue_depth gauge\n"
                      "savg_serve_queue_depth 2\n"),
            std::string::npos);
  EXPECT_NE(
      prom.find("# TYPE savg_serve_latency_resolve_seconds histogram"),
      std::string::npos);
  // Cumulative buckets end at +Inf == _count, and _sum is exact.
  EXPECT_NE(prom.find("_bucket{le=\"+Inf\"} 15"), std::string::npos);
  EXPECT_NE(prom.find("savg_serve_latency_resolve_seconds_count 15"),
            std::string::npos);
  EXPECT_NE(prom.find("savg_serve_latency_resolve_seconds_sum 0.35"),
            std::string::npos);
}

TEST(MetricsRegistryTest, QuantileOfMatchesMemberQuantile) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("latency");
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> sample(0.001, 0.101);
  std::vector<int64_t> buckets(Histogram::kBuckets + 1, 0);
  for (int i = 0; i < 50000; ++i) {
    const double v = sample(rng);
    histogram->Observe(v);
    ++buckets[Histogram::BucketIndex(v)];
  }
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(Histogram::QuantileOf(buckets, q),
                     histogram->Quantile(q))
        << "q=" << q;
  }
}

// --- MetricsTimeSeries ------------------------------------------------

TEST(MetricsTimeSeriesTest, CapturesCounterDeltasAndRates) {
  MetricsRegistry registry;
  MetricsTimeSeries series(&registry);
  Counter* hits = registry.GetCounter("hits");

  hits->Increment(10);
  series.CaptureNow(/*interval_seconds=*/2.0);
  hits->Increment(30);
  series.CaptureNow(/*interval_seconds=*/2.0);

  // Last window: only the 30 increments since the previous capture.
  const WindowedSnapshot last = series.Aggregate(1);
  EXPECT_EQ(last.windows, 1);
  EXPECT_EQ(last.CounterDelta("hits"), 30);
  EXPECT_NEAR(last.CounterRate("hits"), 15.0, 1e-9);
  EXPECT_EQ(last.CounterDelta("no.such.metric"), 0);

  // Both windows merged: the full 40 over 4 seconds.
  const WindowedSnapshot both = series.Aggregate(2);
  EXPECT_EQ(both.windows, 2);
  EXPECT_NEAR(both.seconds, 4.0, 1e-9);
  EXPECT_EQ(both.CounterDelta("hits"), 40);
  EXPECT_NEAR(both.CounterRate("hits"), 10.0, 1e-9);
  EXPECT_EQ(series.capture_count(), 2);
}

TEST(MetricsTimeSeriesTest, GaugesReportLastAndMax) {
  MetricsRegistry registry;
  MetricsTimeSeries series(&registry);
  Gauge* depth = registry.GetGauge("depth");

  depth->Set(9);
  series.CaptureNow(1.0);
  depth->Set(3);
  series.CaptureNow(1.0);

  const WindowedSnapshot last = series.Aggregate(1);
  EXPECT_EQ(last.GaugeLast("depth"), 3);
  EXPECT_EQ(last.GaugeMax("depth"), 3);
  const WindowedSnapshot both = series.Aggregate(2);
  EXPECT_EQ(both.GaugeLast("depth"), 3);  // most recent capture wins
  EXPECT_EQ(both.GaugeMax("depth"), 9);   // spike retained
}

TEST(MetricsTimeSeriesTest, WindowedHistogramQuantilesSeeOnlyTheWindow) {
  MetricsRegistry registry;
  MetricsTimeSeries series(&registry);
  Histogram* latency = registry.GetHistogram("latency");

  // Window 1: fast requests. Window 2: slow ones.
  for (int i = 0; i < 1000; ++i) latency->Observe(0.01);
  series.CaptureNow(1.0);
  for (int i = 0; i < 1000; ++i) latency->Observe(0.08);
  series.CaptureNow(1.0);

  // The lifetime histogram mixes both; the last window must not.
  const WindowedSnapshot last = series.Aggregate(1);
  const WindowedSnapshot::HistogramRow* row = last.FindHistogram("latency");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->count, 1000);
  EXPECT_NEAR(row->mean, 0.08, 1e-6);
  EXPECT_NEAR(row->p50, 0.08, 0.15 * 0.08);
  EXPECT_NEAR(row->rate, 1000.0, 1e-6);

  // Merging both windows recovers the lifetime mixture.
  const WindowedSnapshot both = series.Aggregate(2);
  row = both.FindHistogram("latency");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->count, 2000);
  EXPECT_NEAR(row->mean, 0.045, 1e-6);
  EXPECT_NEAR(row->p50, latency->Quantile(0.5), 1e-12);
}

TEST(MetricsTimeSeriesTest, RingEvictsOldWindows) {
  MetricsRegistry registry;
  MetricsTimeSeries series(&registry, /*windows=*/4);
  Counter* hits = registry.GetCounter("hits");
  for (int i = 0; i < 10; ++i) {
    hits->Increment(1);
    series.CaptureNow(1.0);
  }
  // Only the last 4 windows are retained, however many are asked for.
  const WindowedSnapshot all = series.Aggregate(100);
  EXPECT_EQ(all.windows, 4);
  EXPECT_EQ(all.CounterDelta("hits"), 4);
  EXPECT_EQ(series.capture_count(), 10);
}

TEST(MetricsTimeSeriesTest, JsonDumpCarriesAllSections) {
  MetricsRegistry registry;
  MetricsTimeSeries series(&registry);
  registry.GetCounter("hits")->Increment(3);
  registry.GetGauge("depth")->Set(2);
  registry.GetHistogram("latency")->Observe(0.01);
  series.CaptureNow(2.0);

  const std::string json = series.Aggregate(1).JsonDump();
  EXPECT_NE(json.find("\"windows\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"seconds\": 2"), std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"hits\", \"delta\": 3, \"rate\": 1.5}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"depth\", \"last\": 2, \"max\": 2}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"latency\", \"count\": 1"),
            std::string::npos);
}

}  // namespace
}  // namespace savg
