#include "serve/admission.h"

#include <utility>

#include "util/logging.h"

namespace savg {

AdmissionQueue::AdmissionQueue(SessionManager* manager,
                               MetricsRegistry* metrics,
                               AdmissionOptions options)
    : manager_(manager),
      options_(options),
      depth_gauge_(metrics->GetGauge("serve.queue_depth")),
      admitted_(metrics->GetCounter("serve.admitted")),
      shed_(metrics->GetCounter("serve.shed")),
      errors_(metrics->GetCounter("serve.errors")),
      resolves_(metrics->GetCounter("serve.resolves")),
      resolves_coalesced_(metrics->GetCounter("serve.resolves_coalesced")),
      resolve_latency_(metrics->GetHistogram("serve.latency.resolve")),
      mutation_latency_(metrics->GetHistogram("serve.latency.mutation")) {}

Status AdmissionQueue::Submit(int session_id, const SessionCommand& command,
                              ApplyCallback done,
                              std::shared_ptr<TraceContext> trace,
                              bool force_verify) {
  // Sessions are dense and never removed, so an unknown id is the only
  // submission the manager rejects. Refusing it here lets an admitted
  // command count before it is queued: a worker may run it and answer the
  // client before manager_->Submit even returns.
  if (session_id < 0 || session_id >= manager_->num_sessions()) {
    errors_->Increment();
    return Status::OutOfRange("unknown session id");
  }
  // Reserve the slot first (increment-then-check keeps the bound exact
  // under concurrent submitters: whoever lands past the limit backs out).
  depth_gauge_->Increment();
  if (depth_gauge_->value() > options_.max_queue_depth) {
    depth_gauge_->Decrement();
    shed_->Increment();
    return Status::ResourceExhausted(
        "admission queue full (" +
        std::to_string(options_.max_queue_depth) + " commands in flight)");
  }
  const bool is_resolve = command.type == CommandType::kResolve;
  Timer timer;
  ApplyCallback wrapped = [this, is_resolve, timer,
                           done = std::move(done)](
                              const Status& status,
                              const CommandOutcome& outcome) {
    const double elapsed = timer.ElapsedSeconds();
    if (is_resolve) {
      resolve_latency_->Observe(elapsed);
      if (outcome.coalesced_away) {
        resolves_coalesced_->Increment();
      } else {
        resolves_->Increment();
      }
    } else {
      mutation_latency_->Observe(elapsed);
    }
    if (!status.ok()) errors_->Increment();
    if (done) done(status, outcome);
    // The slot is held until the caller's completion work (e.g. writing
    // the response frame) finishes — in-flight means admit-to-answered.
    depth_gauge_->Decrement();
  };
  admitted_->Increment();
  return manager_->Submit(session_id, command, std::move(wrapped),
                          std::move(trace), force_verify);
}

}  // namespace savg
