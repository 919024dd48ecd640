// Tests of the observability subsystem (src/obs/): TraceContext span
// nesting and bridged children, TraceScope's no-op contract, Tracer
// sampling / ring retention / stage-histogram folding / slow-query
// accounting, TraceSink rotation, the structured log line format, and the
// trace exporters (Chrome trace-event JSON, text tree, JSONL).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "metrics/registry.h"
#include "obs/structured_log.h"
#include "obs/trace.h"
#include "obs/trace_sink.h"
#include "obs/tracer.h"

namespace savg {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "savg_trace_test_" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --- TraceContext ----------------------------------------------------------

TEST(TraceContextTest, SpansNestViaTheOpenStack) {
  TraceContext ctx(7, 42, 3, "resolve");
  EXPECT_EQ(ctx.trace().trace_id, 7u);
  EXPECT_EQ(ctx.trace().request_id, 42u);
  EXPECT_EQ(ctx.trace().session_id, 3u);
  EXPECT_GT(ctx.trace().start_unix_micros, 0);
  EXPECT_EQ(ctx.CurrentSpan(), -1);

  const int outer = ctx.StartSpan("outer");
  EXPECT_EQ(ctx.CurrentSpan(), outer);
  const int inner = ctx.StartSpan("inner");
  EXPECT_EQ(ctx.trace().spans[inner].parent, outer);
  ctx.AddCounter(-1, "pivots", 12);  // -1 = innermost open
  ctx.AddLabel(inner, "path", "incremental");
  ctx.EndSpan(inner);
  EXPECT_EQ(ctx.CurrentSpan(), outer);
  ctx.EndSpan(outer);
  EXPECT_EQ(ctx.CurrentSpan(), -1);

  const TraceSpan& in = ctx.trace().spans[inner];
  ASSERT_EQ(in.counters.size(), 1u);
  EXPECT_EQ(in.counters[0].first, "pivots");
  EXPECT_EQ(in.counters[0].second, 12);
  ASSERT_EQ(in.labels.size(), 1u);
  EXPECT_EQ(in.labels[0].second, "incremental");
  EXPECT_GE(in.start_nanos, ctx.trace().spans[outer].start_nanos);
  EXPECT_GE(in.duration_nanos, 0);

  // Explicitly-timed spans record verbatim.
  const int timed = ctx.AddSpan("timed", -1, 100, 50);
  EXPECT_EQ(ctx.trace().spans[timed].start_nanos, 100);
  EXPECT_EQ(ctx.trace().spans[timed].duration_nanos, 50);
}

TEST(TraceContextTest, BridgedChildrenLayEndToEndFromTheParentStart) {
  TraceContext ctx(1, 1, 0, "resolve");
  {
    ScopedCurrentTrace current(&ctx);
    TraceScope solve("lp.solve");
    ASSERT_TRUE(solve.active());
    const int a = solve.BridgeChild("lp.ftran", 0.002);
    const int b = solve.BridgeChild("lp.btran", 0.001);
    const int c = solve.BridgeChild("lp.factor", 0.0);  // zero-duration kept
    ASSERT_GE(a, 0);
    ASSERT_GE(b, 0);
    ASSERT_GE(c, 0);
    const std::vector<TraceSpan>& spans = ctx.trace().spans;
    const int parent = spans[a].parent;
    EXPECT_EQ(spans[parent].name, "lp.solve");
    EXPECT_TRUE(spans[a].bridged);
    // Children tile the parent's time from its start, in call order.
    EXPECT_EQ(spans[a].start_nanos, spans[parent].start_nanos);
    EXPECT_EQ(spans[a].duration_nanos, 2000000);
    EXPECT_EQ(spans[b].start_nanos,
              spans[a].start_nanos + spans[a].duration_nanos);
    EXPECT_EQ(spans[c].start_nanos,
              spans[b].start_nanos + spans[b].duration_nanos);
    EXPECT_EQ(spans[c].duration_nanos, 0);
  }
  EXPECT_EQ(CurrentTrace(), nullptr);
}

TEST(TraceContextTest, TraceScopeIsANoOpWithoutACurrentTrace) {
  ASSERT_EQ(CurrentTrace(), nullptr);
  TraceScope scope("lp.solve");
  EXPECT_FALSE(scope.active());
  scope.Counter("pivots", 5);
  scope.Label("path", "full");
  EXPECT_EQ(scope.BridgeChild("lp.ftran", 0.5), -1);
}

// --- Tracer ----------------------------------------------------------------

TEST(TracerTest, SamplesOneInNAndAlwaysForced) {
  MetricsRegistry metrics;
  TracerOptions options;
  options.sample_every = 4;
  Tracer tracer(&metrics, options);
  int sampled = 0;
  for (uint64_t i = 0; i < 16; ++i) {
    if (tracer.Sample(false, i, 0, "resolve") != nullptr) ++sampled;
  }
  EXPECT_EQ(sampled, 4);  // seq 0, 4, 8, 12
  // Forced requests trace regardless and do not consume the sample
  // sequence.
  auto forced = tracer.Sample(true, 99, 0, "resolve");
  ASSERT_NE(forced, nullptr);
  EXPECT_TRUE(forced->trace().forced);
  EXPECT_EQ(metrics.GetCounter("trace.forced")->value(), 1);
  EXPECT_EQ(metrics.GetCounter("trace.sampled")->value(), 4);

  // sample_every = 0: only forced requests trace.
  TracerOptions off;
  off.sample_every = 0;
  Tracer none(&metrics, off);
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(none.Sample(false, i, 0, "resolve"), nullptr);
  }
  EXPECT_NE(none.Sample(true, 8, 0, "resolve"), nullptr);
}

TEST(TracerTest, RingKeepsTheNewestTraces) {
  MetricsRegistry metrics;
  TracerOptions options;
  options.sample_every = 1;
  options.buffer_traces = 4;
  options.slow_seconds = 0.0;
  Tracer tracer(&metrics, options);
  for (uint64_t i = 0; i < 10; ++i) {
    auto ctx = tracer.Sample(false, i, 0, "resolve");
    ASSERT_NE(ctx, nullptr);
    tracer.Finish(ctx, "ok");
  }
  const std::vector<Trace> traces = tracer.LastTraces(100);
  ASSERT_EQ(traces.size(), 4u);  // evicted down to the buffer bound
  // Oldest first, and the newest request is retained.
  EXPECT_LT(traces.front().request_id, traces.back().request_id);
  EXPECT_EQ(traces.back().request_id, 9u);
  EXPECT_EQ(tracer.LastTraces(2).size(), 2u);
  EXPECT_EQ(tracer.LastTraces(2).back().request_id, 9u);
}

TEST(TracerTest, FinishFoldsStageHistograms) {
  MetricsRegistry metrics;
  TracerOptions options;
  options.sample_every = 1;
  Tracer tracer(&metrics, options);
  auto ctx = tracer.Sample(false, 1, 0, "resolve");
  ASSERT_NE(ctx, nullptr);
  ctx->AddSpan("admission.wait", -1, 0, 1000000);
  ctx->AddSpan("lp.presolve", -1, 0, 2000000);  // no stage histogram
  ctx->AddSpan("lp.solve", -1, 0, 3000000);
  ctx->AddSpan("shard.solve", -1, 0, 4000000);
  ctx->AddSpan("csf.round", -1, 0, 5000000);
  ctx->AddSpan("coalesce.defer", -1, 0, 6000000);
  ctx->AddSpan("session.apply", -1, 0, 7000000);  // no stage histogram
  tracer.Finish(ctx, "ok");
  // Serving runs without presolve, so no stage histogram takes that span
  // (the exact counts below show no other stage absorbed it either).
  for (const auto& [name, hist] : metrics.Histograms()) {
    EXPECT_NE(name, "serve.stage.presolve");
  }
  EXPECT_EQ(metrics.GetHistogram("serve.stage.admission")->count(), 1);
  EXPECT_EQ(metrics.GetHistogram("serve.stage.solve")->count(), 2);
  EXPECT_EQ(metrics.GetHistogram("serve.stage.round")->count(), 1);
  EXPECT_EQ(metrics.GetHistogram("serve.stage.coalesce")->count(), 1);
  EXPECT_NEAR(metrics.GetHistogram("serve.stage.solve")->mean(), 0.0035,
              1e-4);
}

TEST(TracerTest, SlowRequestsReachTheSlowLogEvenWhenUnsampled) {
  const std::string path = TempPath("slow.jsonl");
  std::remove(path.c_str());
  MetricsRegistry metrics;
  TracerOptions options;
  options.sample_every = 1;
  options.slow_seconds = 0.001;
  options.slow_log_path = path;
  Tracer tracer(&metrics, options);

  // A sampled trace over the threshold writes its full span JSONL line.
  auto ctx = tracer.Sample(false, 5, 2, "resolve");
  ASSERT_NE(ctx, nullptr);
  const int span = ctx->StartSpan("session.apply");
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ctx->EndSpan(span);
  tracer.Finish(ctx, "ok");
  EXPECT_EQ(metrics.GetCounter("trace.slow")->value(), 1);

  // An unsampled slow request still leaves a (span-less) record.
  tracer.FinishUntraced(6, 2, "resolve", 0.5, "ok");
  EXPECT_EQ(metrics.GetCounter("trace.slow")->value(), 2);
  EXPECT_EQ(tracer.sink().lines_written(), 2);

  const std::string log = ReadFile(path);
  EXPECT_NE(log.find("\"request_id\": 5"), std::string::npos);
  EXPECT_NE(log.find("session.apply"), std::string::npos);
  EXPECT_NE(log.find("\"request_id\": 6"), std::string::npos);
  EXPECT_NE(log.find("\"total_ms\": 500.0000"), std::string::npos);

  // Fast requests never touch the log.
  tracer.FinishUntraced(7, 2, "resolve", 0.0001, "ok");
  EXPECT_EQ(tracer.sink().lines_written(), 2);
  std::remove(path.c_str());
}

// --- TraceSink -------------------------------------------------------------

TEST(TraceSinkTest, RotatesGenerationsAtTheSizeBound) {
  const std::string path = TempPath("rotate.jsonl");
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  std::remove((path + ".2").c_str());
  TraceSinkOptions options;
  options.path = path;
  options.max_bytes = 128;
  options.max_files = 3;
  TraceSink sink(options);
  ASSERT_TRUE(sink.enabled());
  const std::string line(60, 'x');
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(sink.WriteLine(line + std::to_string(i)).ok());
  }
  EXPECT_EQ(sink.lines_written(), 8);
  EXPECT_GE(sink.rotations(), 2);
  // The live file stays under the bound; the previous generation exists.
  EXPECT_LE(ReadFile(path).size(), options.max_bytes);
  EXPECT_FALSE(ReadFile(path + ".1").empty());
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  std::remove((path + ".2").c_str());
}

TEST(TraceSinkTest, EmptyPathDisablesTheSink) {
  TraceSink sink(TraceSinkOptions{});
  EXPECT_FALSE(sink.enabled());
  EXPECT_TRUE(sink.WriteLine("ignored").ok());
  EXPECT_EQ(sink.lines_written(), 0);
}

// --- Structured log --------------------------------------------------------

TEST(StructuredLogTest, FormatsAndQuotesFields) {
  const std::string line =
      FormatEvent("serve.slow", LogFields()
                                    .Add("trace_id", int64_t{42})
                                    .Add("command", "resolve")
                                    .Add("message", "queue full (256)")
                                    .Add("quoted", "say \"hi\"")
                                    .Add("total_ms", 1.5));
  EXPECT_EQ(line,
            "event=serve.slow trace_id=42 command=resolve "
            "message=\"queue full (256)\" quoted=\"say \\\"hi\\\"\" "
            "total_ms=1.5");
  EXPECT_EQ(FormatEvent("serve.shutdown", LogFields()),
            "event=serve.shutdown");
}

// --- Exporters -------------------------------------------------------------

Trace MakeExportTrace() {
  Trace trace;
  trace.trace_id = 9;
  trace.request_id = 4;
  trace.session_id = 2;
  trace.name = "resolve";
  trace.status = "ok";
  trace.start_unix_micros = 1000000;
  trace.total_nanos = 4000000;
  TraceSpan apply;
  apply.name = "session.apply";
  apply.parent = -1;
  apply.start_nanos = 0;
  apply.duration_nanos = 4000000;
  apply.counters.emplace_back("pivots", 17);
  trace.spans.push_back(apply);
  TraceSpan solve;
  solve.name = "lp.solve";
  solve.parent = 0;
  solve.start_nanos = 1000000;
  solve.duration_nanos = 2000000;
  solve.bridged = true;
  solve.labels.emplace_back("path", "full");
  trace.spans.push_back(solve);
  return trace;
}

TEST(TraceExportTest, ChromeTraceJsonEmitsCompleteEventsPerSpan) {
  const std::string json = ChromeTraceJson({MakeExportTrace()});
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  // Root event + one per span, all complete ("X") events on the trace's
  // tid within the session's pid.
  EXPECT_NE(json.find("\"name\": \"request:resolve\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"session.apply\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"tid\": 9"), std::string::npos);
  EXPECT_NE(json.find("\"pivots\": 17"), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"bridged\""), std::string::npos);
  // Span ts = trace wall-clock base + span offset, in microseconds.
  EXPECT_NE(json.find("\"ts\": 1001000.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 2000.000"), std::string::npos);
}

TEST(TraceExportTest, TextTreeIndentsChildrenAndMarksBridged) {
  const std::string text = TraceTextTree({MakeExportTrace()});
  EXPECT_NE(text.find("trace 9 request=4 session=2 resolve"),
            std::string::npos);
  EXPECT_NE(text.find("\n  session.apply"), std::string::npos);
  EXPECT_NE(text.find("\n    lp.solve ~2.0000ms"), std::string::npos);
  EXPECT_NE(text.find("pivots=17"), std::string::npos);
  EXPECT_NE(text.find("path=full"), std::string::npos);
}

TEST(TraceExportTest, JsonLineCarriesSpansAndAttributes) {
  const std::string line = TraceJsonLine(MakeExportTrace());
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("\"trace_id\": 9"), std::string::npos);
  EXPECT_NE(line.find("\"command\": \"resolve\""), std::string::npos);
  EXPECT_NE(line.find("\"total_ms\": 4.0000"), std::string::npos);
  EXPECT_NE(line.find("\"name\": \"lp.solve\""), std::string::npos);
  EXPECT_NE(line.find("\"bridged\": true"), std::string::npos);
  EXPECT_NE(line.find("\"pivots\": 17"), std::string::npos);
}

}  // namespace
}  // namespace savg
