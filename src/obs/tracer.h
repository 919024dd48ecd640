// Per-server trace lifecycle: sampling, retention, and export.
//
// The ServeServer owns one Tracer. For every apply request it calls
// Sample() — a request is traced when the client set the wire trace flag
// OR it falls in the 1-in-N sample — and Finish() when the response is
// sent. Finished traces export three ways:
//
//   1. a bounded in-memory ring served as Chrome trace-event JSON at
//      GET /trace?last=N (loadable in Perfetto / chrome://tracing),
//   2. a rotating slow-query JSONL log: one TraceJsonLine per request
//      over `slow_seconds` — including requests that were NOT sampled
//      (FinishUntraced writes a span-less line), so "every slow request
//      leaves a record" holds at any sample rate,
//   3. per-stage latency histograms folded into the MetricsRegistry
//      (serve.stage.{admission,coalesce,solve,round}), so
//      /metrics gains stage-level p50/p99 without full traces.
//
// Slow-log lines and the structured server log (obs/structured_log.h) are
// joinable by trace_id.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "metrics/registry.h"
#include "obs/trace.h"
#include "obs/trace_sink.h"

namespace savg {

struct TracerOptions {
  /// Trace 1 in every N apply requests (0 = only requests carrying the
  /// wire trace flag). N=1 traces everything — the overhead gate in
  /// bench_serve_load keeps that affordable.
  int sample_every = 16;
  /// Requests slower than this get a slow-query-log line (and a
  /// structured server log line) whether or not they were sampled.
  /// <= 0 disables slow-query logging.
  double slow_seconds = 0.25;
  /// Finished traces kept in the in-memory ring for GET /trace.
  size_t buffer_traces = 256;
  /// Slow-query JSONL path ("" = no slow-query log file). The file
  /// rotates at TraceSinkOptions' defaults: 8 MiB, 3 generations.
  std::string slow_log_path;
};

class Tracer {
 public:
  explicit Tracer(MetricsRegistry* metrics, TracerOptions options = {});

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a trace for this request when forced (wire flag) or sampled;
  /// returns nullptr when the request is not traced.
  std::shared_ptr<TraceContext> Sample(bool forced, uint64_t request_id,
                                       uint32_t session_id,
                                       const std::string& name);

  /// Closes a trace: stamps total + status, folds stage histograms,
  /// retains it in the ring, and writes the slow log if over threshold.
  void Finish(const std::shared_ptr<TraceContext>& ctx,
              const std::string& status);

  /// Slow-query accounting for requests that were not sampled.
  void FinishUntraced(uint64_t request_id, uint32_t session_id,
                      const std::string& name, double seconds,
                      const std::string& status);

  /// Most recent `n` finished traces, oldest first.
  std::vector<Trace> LastTraces(size_t n) const;

  const TracerOptions& options() const { return options_; }
  const TraceSink& sink() const { return sink_; }

 private:
  void Retain(Trace trace);
  void FoldStageHistograms(const Trace& trace);

  TracerOptions options_;
  MetricsRegistry* metrics_;
  TraceSink sink_;

  std::atomic<uint64_t> next_trace_id_{1};
  std::atomic<uint64_t> sample_seq_{0};

  Counter* traces_sampled_;
  Counter* traces_forced_;
  Counter* traces_slow_;
  Histogram* stage_admission_;
  Histogram* stage_coalesce_;
  Histogram* stage_solve_;
  Histogram* stage_round_;

  mutable std::mutex mu_;      ///< guards ring_
  std::deque<Trace> ring_;
};

/// Renders traces as Chrome trace-event JSON (one "X" complete event per
/// span, pid = session id, tid = trace id).
std::string ChromeTraceJson(const std::vector<Trace>& traces);

/// Renders traces as an indented human-readable span tree.
std::string TraceTextTree(const std::vector<Trace>& traces);

/// One-line JSON for the slow-query log.
std::string TraceJsonLine(const Trace& trace);

/// `value` escaped for the inside of a JSON string literal: quote and
/// backslash backslash-escaped, control characters as \n, \t or \u00XX.
/// Shared by the trace exports, the metrics dumps and the status JSON.
std::string JsonEscape(const std::string& value);

}  // namespace savg
