#include "obs/trace.h"

namespace savg {

namespace {

thread_local TraceContext* g_current_trace = nullptr;

int64_t UnixMicrosNow() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

TraceContext::TraceContext(uint64_t trace_id, uint64_t request_id,
                           uint32_t session_id, std::string name)
    : t0_(std::chrono::steady_clock::now()) {
  trace_.trace_id = trace_id;
  trace_.request_id = request_id;
  trace_.session_id = session_id;
  trace_.name = std::move(name);
  trace_.start_unix_micros = UnixMicrosNow();
  // A resolve's trace holds about a dozen spans (six are the bridged LP
  // phases); growing the vector to that from empty would reallocate and
  // move the spans four times on the request path.
  trace_.spans.reserve(16);
}

int64_t TraceContext::NowNanos() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

int TraceContext::StartSpan(const std::string& name) {
  TraceSpan span;
  span.name = name;
  span.parent = CurrentSpan();
  span.start_nanos = NowNanos();
  const int index = static_cast<int>(trace_.spans.size());
  trace_.spans.push_back(std::move(span));
  stack_.push_back(index);
  return index;
}

void TraceContext::EndSpan(int span) {
  if (span < 0 || span >= static_cast<int>(trace_.spans.size())) return;
  trace_.spans[span].duration_nanos =
      NowNanos() - trace_.spans[span].start_nanos;
  // Pop through `span`: tolerates a missed EndSpan of a child (early
  // return paths) without corrupting the stack.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == span) break;
  }
}

int TraceContext::AddSpan(const std::string& name, int parent,
                          int64_t start_nanos, int64_t duration_nanos,
                          bool bridged) {
  TraceSpan span;
  span.name = name;
  span.parent = parent;
  span.start_nanos = start_nanos;
  span.duration_nanos = duration_nanos;
  span.bridged = bridged;
  trace_.spans.push_back(std::move(span));
  return static_cast<int>(trace_.spans.size()) - 1;
}

void TraceContext::AddCounter(int span, const std::string& key,
                              int64_t value) {
  if (span < 0) span = CurrentSpan();
  if (span < 0 || span >= static_cast<int>(trace_.spans.size())) return;
  trace_.spans[span].counters.emplace_back(key, value);
}

void TraceContext::AddLabel(int span, const std::string& key,
                            std::string value) {
  if (span < 0) span = CurrentSpan();
  if (span < 0 || span >= static_cast<int>(trace_.spans.size())) return;
  trace_.spans[span].labels.emplace_back(key, std::move(value));
}

TraceContext* CurrentTrace() { return g_current_trace; }

ScopedCurrentTrace::ScopedCurrentTrace(TraceContext* trace)
    : prev_(g_current_trace) {
  g_current_trace = trace;
}

ScopedCurrentTrace::~ScopedCurrentTrace() { g_current_trace = prev_; }

TraceScope::TraceScope(const char* name) : trace_(g_current_trace) {
  if (trace_ == nullptr) return;
  span_ = trace_->StartSpan(name);
  bridge_cursor_nanos_ = trace_->trace().spans[span_].start_nanos;
}

TraceScope::~TraceScope() {
  if (trace_ != nullptr) trace_->EndSpan(span_);
}

void TraceScope::Counter(const char* key, int64_t value) {
  if (trace_ != nullptr) trace_->AddCounter(span_, key, value);
}

void TraceScope::Label(const char* key, std::string value) {
  if (trace_ != nullptr) trace_->AddLabel(span_, key, std::move(value));
}

int TraceScope::BridgeChild(const char* name, double seconds) {
  if (trace_ == nullptr) return -1;
  const int64_t nanos =
      seconds > 0.0 ? static_cast<int64_t>(seconds * 1e9) : 0;
  const int child = trace_->AddSpan(name, span_, bridge_cursor_nanos_,
                                    nanos, /*bridged=*/true);
  bridge_cursor_nanos_ += nanos;
  return child;
}

}  // namespace savg
