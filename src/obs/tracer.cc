#include "obs/tracer.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

#include "obs/structured_log.h"

namespace savg {

std::string JsonEscape(const std::string& value) {
  std::string out;
  out.reserve(value.size() + 2);
  for (char ch : value) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

namespace {

std::string MillisString(int64_t nanos) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", static_cast<double>(nanos) * 1e-6);
  return buf;
}

std::string MicrosString(int64_t nanos) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(nanos) * 1e-3);
  return buf;
}

}  // namespace

Tracer::Tracer(MetricsRegistry* metrics, TracerOptions options)
    : options_(std::move(options)),
      metrics_(metrics),
      sink_(TraceSinkOptions{options_.slow_log_path}),
      traces_sampled_(metrics->GetCounter("trace.sampled")),
      traces_forced_(metrics->GetCounter("trace.forced")),
      traces_slow_(metrics->GetCounter("trace.slow")),
      stage_admission_(metrics->GetHistogram("serve.stage.admission")),
      stage_coalesce_(metrics->GetHistogram("serve.stage.coalesce")),
      stage_solve_(metrics->GetHistogram("serve.stage.solve")),
      stage_round_(metrics->GetHistogram("serve.stage.round")) {}

std::shared_ptr<TraceContext> Tracer::Sample(bool forced,
                                             uint64_t request_id,
                                             uint32_t session_id,
                                             const std::string& name) {
  bool sampled = false;
  if (!forced && options_.sample_every > 0) {
    const uint64_t seq =
        sample_seq_.fetch_add(1, std::memory_order_relaxed);
    sampled = seq % static_cast<uint64_t>(options_.sample_every) == 0;
  }
  if (!forced && !sampled) return nullptr;
  (forced ? traces_forced_ : traces_sampled_)->Increment();
  auto ctx = std::make_shared<TraceContext>(
      next_trace_id_.fetch_add(1, std::memory_order_relaxed), request_id,
      session_id, name);
  ctx->trace().forced = forced;
  return ctx;
}

void Tracer::FoldStageHistograms(const Trace& trace) {
  for (const TraceSpan& span : trace.spans) {
    Histogram* hist = nullptr;
    if (span.name == "admission.wait") {
      hist = stage_admission_;
    } else if (span.name == "coalesce.defer") {
      hist = stage_coalesce_;
    } else if (span.name == "lp.solve" || span.name == "shard.solve") {
      hist = stage_solve_;
    } else if (span.name == "csf.round") {
      hist = stage_round_;
    }
    if (hist != nullptr) {
      hist->Observe(static_cast<double>(span.duration_nanos) * 1e-9);
    }
  }
}

void Tracer::Retain(Trace trace) {
  const bool slow =
      options_.slow_seconds > 0.0 &&
      static_cast<double>(trace.total_nanos) * 1e-9 > options_.slow_seconds;
  if (slow) {
    traces_slow_->Increment();
    sink_.WriteLine(TraceJsonLine(trace));
    LogEvent(LogLevel::kInfo, "serve.slow",
             LogFields()
                 .Add("trace_id", trace.trace_id)
                 .Add("request_id", trace.request_id)
                 .Add("session", static_cast<int64_t>(trace.session_id))
                 .Add("command", trace.name)
                 .Add("status", trace.status)
                 .Add("total_ms",
                      static_cast<double>(trace.total_nanos) * 1e-6));
  }
  std::lock_guard<std::mutex> lock(mu_);
  ring_.push_back(std::move(trace));
  while (ring_.size() > options_.buffer_traces) ring_.pop_front();
}

void Tracer::Finish(const std::shared_ptr<TraceContext>& ctx,
                    const std::string& status) {
  if (ctx == nullptr) return;
  ctx->trace().total_nanos = ctx->NowNanos();
  ctx->trace().status = status;
  FoldStageHistograms(ctx->trace());
  // Move, don't copy: the context is dead after Finish, and the span
  // vector with its strings is the bulk of the per-request tracing cost.
  Retain(std::move(ctx->trace()));
}

void Tracer::FinishUntraced(uint64_t request_id, uint32_t session_id,
                            const std::string& name, double seconds,
                            const std::string& status) {
  if (options_.slow_seconds <= 0.0 || seconds <= options_.slow_seconds) {
    return;
  }
  // Span-less record: the request was over the slow threshold but not
  // sampled, and "any request over the threshold leaves a line" must hold
  // at every sample rate. It still gets a trace id for log joins.
  Trace trace;
  trace.trace_id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  trace.request_id = request_id;
  trace.session_id = session_id;
  trace.name = name;
  trace.status = status;
  trace.total_nanos = static_cast<int64_t>(seconds * 1e9);
  traces_slow_->Increment();
  sink_.WriteLine(TraceJsonLine(trace));
  LogEvent(LogLevel::kInfo, "serve.slow",
           LogFields()
               .Add("trace_id", trace.trace_id)
               .Add("request_id", trace.request_id)
               .Add("session", static_cast<int64_t>(trace.session_id))
               .Add("command", trace.name)
               .Add("status", trace.status)
               .Add("total_ms", seconds * 1e3)
               .Add("sampled", static_cast<int64_t>(0)));
}

std::vector<Trace> Tracer::LastTraces(size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t count = std::min(n, ring_.size());
  return std::vector<Trace>(ring_.end() - static_cast<long>(count),
                            ring_.end());
}

// --- Exporters -------------------------------------------------------------

namespace {

void AppendArgs(const TraceSpan& span, std::ostringstream* out) {
  for (const auto& [key, value] : span.counters) {
    *out << ", \"" << JsonEscape(key) << "\": " << value;
  }
  for (const auto& [key, value] : span.labels) {
    *out << ", \"" << JsonEscape(key) << "\": \"" << JsonEscape(value)
         << "\"";
  }
}

}  // namespace

std::string ChromeTraceJson(const std::vector<Trace>& traces) {
  std::ostringstream out;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const Trace& trace : traces) {
    const int64_t base_nanos = trace.start_unix_micros * 1000;
    if (!first) out << ", ";
    first = false;
    // Root event spanning the whole request; pid groups by session, tid
    // gives each request its own track.
    out << "{\"name\": \"request:" << JsonEscape(trace.name)
        << "\", \"cat\": \"request\", \"ph\": \"X\", \"pid\": "
        << trace.session_id << ", \"tid\": " << trace.trace_id
        << ", \"ts\": " << MicrosString(base_nanos)
        << ", \"dur\": " << MicrosString(trace.total_nanos)
        << ", \"args\": {\"trace_id\": " << trace.trace_id
        << ", \"request_id\": " << trace.request_id << ", \"status\": \""
        << JsonEscape(trace.status) << "\", \"forced\": "
        << (trace.forced ? "true" : "false") << "}}";
    for (const TraceSpan& span : trace.spans) {
      out << ", {\"name\": \"" << JsonEscape(span.name)
          << "\", \"cat\": \"" << (span.bridged ? "bridged" : "span")
          << "\", \"ph\": \"X\", \"pid\": " << trace.session_id
          << ", \"tid\": " << trace.trace_id << ", \"ts\": "
          << MicrosString(base_nanos + span.start_nanos)
          << ", \"dur\": " << MicrosString(span.duration_nanos)
          << ", \"args\": {\"trace_id\": " << trace.trace_id;
      AppendArgs(span, &out);
      out << "}}";
    }
  }
  out << "]}";
  return out.str();
}

std::string TraceTextTree(const std::vector<Trace>& traces) {
  std::ostringstream out;
  for (const Trace& trace : traces) {
    out << "trace " << trace.trace_id << " request=" << trace.request_id
        << " session=" << trace.session_id << " " << trace.name << " "
        << MillisString(trace.total_nanos) << "ms status=" << trace.status;
    if (trace.forced) out << " forced";
    out << "\n";
    // Depth via the parent chain (spans are recorded parents-first).
    std::vector<int> depth(trace.spans.size(), 0);
    for (size_t i = 0; i < trace.spans.size(); ++i) {
      const int parent = trace.spans[i].parent;
      if (parent >= 0 && parent < static_cast<int>(i)) {
        depth[i] = depth[parent] + 1;
      }
    }
    for (size_t i = 0; i < trace.spans.size(); ++i) {
      const TraceSpan& span = trace.spans[i];
      out << std::string(2 * (depth[i] + 1), ' ') << span.name << " "
          << (span.bridged ? "~" : "")
          << MillisString(span.duration_nanos) << "ms";
      for (const auto& [key, value] : span.counters) {
        out << " " << key << "=" << value;
      }
      for (const auto& [key, value] : span.labels) {
        out << " " << key << "=" << value;
      }
      out << "\n";
    }
  }
  return out.str();
}

std::string TraceJsonLine(const Trace& trace) {
  std::ostringstream out;
  out << "{\"ts_micros\": " << trace.start_unix_micros
      << ", \"trace_id\": " << trace.trace_id
      << ", \"request_id\": " << trace.request_id
      << ", \"session\": " << trace.session_id << ", \"command\": \""
      << JsonEscape(trace.name) << "\", \"status\": \""
      << JsonEscape(trace.status)
      << "\", \"total_ms\": " << MillisString(trace.total_nanos)
      << ", \"spans\": [";
  bool first = true;
  for (const TraceSpan& span : trace.spans) {
    if (!first) out << ", ";
    first = false;
    out << "{\"name\": \"" << JsonEscape(span.name)
        << "\", \"parent\": " << span.parent << ", \"start_ms\": "
        << MillisString(span.start_nanos) << ", \"dur_ms\": "
        << MillisString(span.duration_nanos);
    if (span.bridged) out << ", \"bridged\": true";
    AppendArgs(span, &out);
    out << "}";
  }
  out << "]}";
  return out.str();
}

}  // namespace savg
