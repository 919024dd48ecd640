// Tests of the windowed health rule engine (src/obs/health.h): every
// rule firing in isolation on synthetic windows, the degrade/recover
// hysteresis (one noisy window must not flap the verdict), the
// immediate-unhealthy verification-failure and journal fail-stop paths,
// and the EWMA latency
// baseline that refuses to absorb regressed windows.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "metrics/timeseries.h"
#include "obs/health.h"

namespace savg {
namespace {

/// A quiet one-second window: no counters moved, nothing fires.
WindowedSnapshot CleanWindow() {
  WindowedSnapshot window;
  window.windows = 1;
  window.seconds = 1.0;
  return window;
}

void AddCounter(WindowedSnapshot* window, const std::string& name,
                int64_t delta) {
  window->counters.push_back(
      {name, delta, static_cast<double>(delta) / window->seconds});
}

void AddGauge(WindowedSnapshot* window, const std::string& name,
              int64_t last, int64_t max) {
  window->gauges.push_back({name, last, max});
}

void AddResolveLatency(WindowedSnapshot* window, int64_t count,
                       double mean) {
  WindowedSnapshot::HistogramRow row;
  row.name = "serve.latency.resolve";
  row.count = count;
  row.rate = static_cast<double>(count) / window->seconds;
  row.mean = mean;
  row.p50 = mean;
  row.p99 = mean;
  window->histograms.push_back(row);
}

bool HasReason(const HealthVerdict& verdict, const std::string& reason) {
  for (const std::string& r : verdict.reasons) {
    if (r == reason) return true;
  }
  return false;
}

/// Feeds `window` twice, the hysteresis's two consecutive bad windows
/// that leave ok, and returns the second verdict.
HealthVerdict EvaluateTwice(HealthMonitor* monitor,
                            const WindowedSnapshot& window) {
  monitor->Evaluate(window);
  return monitor->Evaluate(window);
}

TEST(HealthMonitorTest, QuietWindowsStayOk) {
  HealthMonitor monitor;
  for (int i = 0; i < 10; ++i) {
    const HealthVerdict verdict = monitor.Evaluate(CleanWindow());
    EXPECT_EQ(verdict.level, HealthLevel::kOk);
    EXPECT_TRUE(verdict.reasons.empty());
  }
  EXPECT_EQ(monitor.verdict().evaluations, 10);
}

TEST(HealthMonitorTest, ShedRateRuleFires) {
  HealthMonitor monitor;
  WindowedSnapshot window = CleanWindow();
  AddCounter(&window, "serve.shed", 50);  // 50/s > 5/s
  const HealthVerdict verdict = EvaluateTwice(&monitor, window);
  EXPECT_EQ(verdict.level, HealthLevel::kDegraded);
  EXPECT_TRUE(HasReason(verdict, "shed_rate"));
}

TEST(HealthMonitorTest, ShedRateBelowThresholdDoesNotFire) {
  HealthMonitor monitor;
  WindowedSnapshot window = CleanWindow();
  AddCounter(&window, "serve.shed", 3);  // 3/s < 5/s
  EXPECT_EQ(EvaluateTwice(&monitor, window).level, HealthLevel::kOk);
}

TEST(HealthMonitorTest, QueueSaturationRuleFires) {
  HealthMonitor monitor(/*queue_capacity=*/100);  // fires above 90
  WindowedSnapshot window = CleanWindow();
  AddGauge(&window, "serve.queue_depth", /*last=*/10, /*max=*/95);
  const HealthVerdict verdict = EvaluateTwice(&monitor, window);
  EXPECT_EQ(verdict.level, HealthLevel::kDegraded);
  EXPECT_TRUE(HasReason(verdict, "queue_saturation"));

  // Disabled (capacity 0): the same window reads healthy.
  HealthMonitor no_rule;
  EXPECT_EQ(EvaluateTwice(&no_rule, window).level, HealthLevel::kOk);
}

TEST(HealthMonitorTest, SlowRequestRateRuleFires) {
  HealthMonitor monitor;
  WindowedSnapshot window = CleanWindow();
  AddCounter(&window, "trace.slow", 10);  // 10/s > 1/s
  const HealthVerdict verdict = EvaluateTwice(&monitor, window);
  EXPECT_EQ(verdict.level, HealthLevel::kDegraded);
  EXPECT_TRUE(HasReason(verdict, "slow_request_rate"));
}

TEST(HealthMonitorTest, EtaChainGrowthRuleFires) {
  HealthMonitor monitor;
  WindowedSnapshot window = CleanWindow();
  AddGauge(&window, "lp.eta_chain", /*last=*/2048, /*max=*/2048);
  const HealthVerdict verdict = EvaluateTwice(&monitor, window);
  EXPECT_EQ(verdict.level, HealthLevel::kDegraded);
  EXPECT_TRUE(HasReason(verdict, "eta_chain_growth"));
}

TEST(HealthMonitorTest, ChangelogLagRuleFires) {
  // The limit is 4096 un-snapshotted commands: at the limit the window
  // reads healthy, one command past it the rule fires.
  HealthMonitor at_limit;
  WindowedSnapshot lagging = CleanWindow();
  AddGauge(&lagging, "durability.changelog_lag", /*last=*/0, /*max=*/4096);
  EXPECT_EQ(EvaluateTwice(&at_limit, lagging).level, HealthLevel::kOk);

  HealthMonitor monitor;
  WindowedSnapshot over = CleanWindow();
  AddGauge(&over, "durability.changelog_lag", /*last=*/0, /*max=*/4097);
  const HealthVerdict verdict = EvaluateTwice(&monitor, over);
  EXPECT_EQ(verdict.level, HealthLevel::kDegraded);
  EXPECT_TRUE(HasReason(verdict, "changelog_lag"));
}

TEST(HealthMonitorTest, ResolveLatencyRegressionRuleFires) {
  HealthMonitor monitor;
  // Establish the EWMA baseline around 10ms.
  for (int i = 0; i < 5; ++i) {
    WindowedSnapshot window = CleanWindow();
    AddResolveLatency(&window, /*count=*/20, /*mean=*/0.010);
    EXPECT_EQ(monitor.Evaluate(window).level, HealthLevel::kOk);
  }
  // 40ms > 3x baseline: regression.
  WindowedSnapshot slow = CleanWindow();
  AddResolveLatency(&slow, /*count=*/20, /*mean=*/0.040);
  const HealthVerdict verdict = EvaluateTwice(&monitor, slow);
  EXPECT_EQ(verdict.level, HealthLevel::kDegraded);
  EXPECT_TRUE(HasReason(verdict, "resolve_latency_regression"));
}

TEST(HealthMonitorTest, LatencyBaselineIgnoresSparseWindows) {
  HealthMonitor monitor;
  // Baseline at 10ms.
  for (int i = 0; i < 3; ++i) {
    WindowedSnapshot window = CleanWindow();
    AddResolveLatency(&window, /*count=*/20, /*mean=*/0.010);
    monitor.Evaluate(window);
  }
  // A 2-resolve window (below latency_min_count) can be arbitrarily slow
  // without firing: two cold solves are not a fleet-level regression.
  WindowedSnapshot sparse = CleanWindow();
  AddResolveLatency(&sparse, /*count=*/2, /*mean=*/1.0);
  EXPECT_EQ(EvaluateTwice(&monitor, sparse).level, HealthLevel::kOk);
}

TEST(HealthMonitorTest, SustainedRegressionDoesNotPolluteBaseline) {
  HealthMonitor monitor;
  for (int i = 0; i < 5; ++i) {
    WindowedSnapshot window = CleanWindow();
    AddResolveLatency(&window, /*count=*/20, /*mean=*/0.010);
    monitor.Evaluate(window);
  }
  // If regressed windows fed the EWMA, the baseline would chase the
  // regression and the rule would stop firing after a few windows.
  WindowedSnapshot slow = CleanWindow();
  AddResolveLatency(&slow, /*count=*/20, /*mean=*/0.040);
  monitor.Evaluate(slow);  // the first of the two bad windows that degrade
  for (int i = 0; i < 10; ++i) {
    const HealthVerdict verdict = monitor.Evaluate(slow);
    EXPECT_EQ(verdict.level, HealthLevel::kDegraded) << "window " << i;
    EXPECT_TRUE(HasReason(verdict, "resolve_latency_regression"));
  }
}

TEST(HealthMonitorTest, OneNoisyWindowDoesNotFlap) {
  HealthMonitor monitor;  // two bad windows degrade
  WindowedSnapshot bad = CleanWindow();
  AddCounter(&bad, "serve.shed", 50);
  // bad, clean, bad, clean ... never two bad in a row: stays ok.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(monitor.Evaluate(bad).level, HealthLevel::kOk);
    EXPECT_EQ(monitor.Evaluate(CleanWindow()).level, HealthLevel::kOk);
  }
  // Two consecutive bad windows: degraded.
  EXPECT_EQ(monitor.Evaluate(bad).level, HealthLevel::kOk);
  EXPECT_EQ(monitor.Evaluate(bad).level, HealthLevel::kDegraded);
  // One clean window is not yet recovery (two clean windows recover)...
  EXPECT_EQ(monitor.Evaluate(CleanWindow()).level, HealthLevel::kDegraded);
  // ...the second is.
  const HealthVerdict recovered = monitor.Evaluate(CleanWindow());
  EXPECT_EQ(recovered.level, HealthLevel::kOk);
  EXPECT_TRUE(recovered.reasons.empty());
}

TEST(HealthMonitorTest, VerifyFailureAndJournalFailStopTripImmediately) {
  WindowedSnapshot verify_failed = CleanWindow();
  AddCounter(&verify_failed, "verify.fail", 1);
  WindowedSnapshot journal_failed = CleanWindow();
  AddGauge(&journal_failed, "durability.journal_failed", 1, 1);
  const std::vector<std::pair<WindowedSnapshot, std::string>> cases = {
      {verify_failed, "verify_failure"}, {journal_failed, "journal_failed"}};
  for (const auto& [bad, reason] : cases) {
    HealthMonitor monitor;  // the two-window hysteresis must NOT apply
    const HealthVerdict verdict = monitor.Evaluate(bad);
    EXPECT_EQ(verdict.level, HealthLevel::kUnhealthy);
    EXPECT_TRUE(HasReason(verdict, reason));
    // Recovery still takes the normal clean-window path.
    EXPECT_EQ(monitor.Evaluate(CleanWindow()).level, HealthLevel::kUnhealthy);
    EXPECT_EQ(monitor.Evaluate(CleanWindow()).level, HealthLevel::kOk);
  }
}

TEST(HealthMonitorTest, ReasonsTrackTheFreshestBadWindow) {
  HealthMonitor monitor;
  WindowedSnapshot shed = CleanWindow();
  AddCounter(&shed, "serve.shed", 50);
  EXPECT_TRUE(HasReason(EvaluateTwice(&monitor, shed), "shed_rate"));
  // The degraded verdict's reasons follow the latest active rules.
  WindowedSnapshot slow = CleanWindow();
  AddCounter(&slow, "trace.slow", 10);
  const HealthVerdict verdict = monitor.Evaluate(slow);
  EXPECT_EQ(verdict.level, HealthLevel::kDegraded);
  EXPECT_TRUE(HasReason(verdict, "slow_request_rate"));
  EXPECT_FALSE(HasReason(verdict, "shed_rate"));
}

TEST(HealthMonitorTest, JsonDumpCarriesStatusAndReasons) {
  HealthMonitor monitor;
  EXPECT_NE(monitor.JsonDump().find("\"status\": \"ok\""),
            std::string::npos);
  WindowedSnapshot bad = CleanWindow();
  AddCounter(&bad, "serve.shed", 50);
  EvaluateTwice(&monitor, bad);
  const std::string json = monitor.JsonDump();
  EXPECT_NE(json.find("\"status\": \"degraded\""), std::string::npos);
  EXPECT_NE(json.find("\"shed_rate\""), std::string::npos);
}

}  // namespace
}  // namespace savg
