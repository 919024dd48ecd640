#include "online/session_manager.h"

#include <utility>

#include "durability/session_store.h"
#include "obs/verify.h"
#include "util/logging.h"

namespace savg {

SessionManager::SessionManager(SessionManagerOptions options)
    : options_(options), pool_(options.num_workers) {
  if (MetricsRegistry* m = options_.metrics) {
    solver_metrics_.pivots = m->GetCounter("lp.pivots");
    solver_metrics_.phase1_pivots = m->GetCounter("lp.phase1_pivots");
    solver_metrics_.phase1_reentries = m->GetCounter("lp.phase1_reentries");
    solver_metrics_.bland_pivots = m->GetCounter("lp.bland_pivots");
    solver_metrics_.dual_pivots = m->GetCounter("lp.dual_pivots");
    solver_metrics_.refactorizations = m->GetCounter("lp.refactorizations");
    solver_metrics_.reused_factorizations =
        m->GetCounter("lp.reused_factorizations");
    solver_metrics_.resolve_cold = m->GetCounter("resolve.cold");
    solver_metrics_.resolve_incremental =
        m->GetCounter("resolve.incremental");
    solver_metrics_.resolve_cold_fallback =
        m->GetCounter("resolve.cold_fallback");
    solver_metrics_.resolve_failures = m->GetCounter("resolve.failures");
    solver_metrics_.full_rerounds = m->GetCounter("session.full_rerounds");
    solver_metrics_.shard_dual_rounds = m->GetCounter("shard.dual_rounds");
    solver_metrics_.eta_chain = m->GetGauge("lp.eta_chain");
    solver_metrics_.kept_share_ppm = m->GetGauge("session.kept_share_ppm");
    solver_metrics_.shard_gap_ppm = m->GetGauge("shard.gap_ppm");
  }
}

SessionManager::~SessionManager() { Drain(); }

int SessionManager::CreateSession(SvgicInstance instance,
                                  SessionOptions options) {
  std::lock_guard<std::mutex> lock(mu_);
  // Construction happens under the registry lock so the session id can be
  // stamped into the options first (verify jobs carry it); CreateSession
  // is rare enough that serializing it is fine.
  const int id = static_cast<int>(entries_.size());
  options.verifier_session_id = static_cast<uint32_t>(id);
  auto entry = std::make_unique<Entry>();
  entry->session = std::make_unique<Session>(std::move(instance), options);
  entry->stats.num_users = entry->session->instance().num_users();
  entry->stats.num_items = entry->session->instance().num_items();
  entry->stats.session_id = id;
  AttachJournal(entry.get(), id, /*epoch=*/0, /*applied_seq=*/0);
  entries_.push_back(std::move(entry));
  return id;
}

int SessionManager::AdoptSession(std::unique_ptr<Session> session,
                                 uint32_t epoch, uint64_t applied_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  const int id = static_cast<int>(entries_.size());
  auto entry = std::make_unique<Entry>();
  entry->session = std::move(session);
  entry->stats.num_users = entry->session->instance().num_users();
  entry->stats.num_items = entry->session->instance().num_items();
  entry->stats.session_id = id;
  entry->stats.commands_applied = static_cast<int64_t>(applied_seq);
  entry->stats.resolves = entry->session->num_resolves();
  AttachJournal(entry.get(), id, epoch, applied_seq);
  entries_.push_back(std::move(entry));
  return id;
}

void SessionManager::AttachJournal(Entry* entry, int id, uint32_t epoch,
                                   uint64_t applied_seq) {
  if (options_.store == nullptr) return;
  auto journal = options_.store->Attach(static_cast<uint32_t>(id),
                                        *entry->session, epoch, applied_seq);
  if (!journal.ok()) {
    // Durability degrades to in-memory-only for this session rather than
    // refusing to serve; the operator sees the warning and the missing
    // durability.appends growth.
    SAVG_LOG(Warning) << "durability: attach failed for session " << id
                      << ": " << journal.status().message();
    return;
  }
  entry->journal = *journal;
  entry->session->set_journal(*journal);
}

void SessionManager::MaybeSnapshot(Entry* entry) {
  if (entry->journal == nullptr || !entry->journal->ShouldSnapshot()) return;
  const Status status = entry->journal->TakeSnapshot(*entry->session);
  if (!status.ok()) {
    SAVG_LOG(Warning) << "durability: snapshot failed for session "
                      << entry->stats.session_id << ": " << status.message();
  }
}

Status SessionManager::FlushDurability() {
  if (options_.store == nullptr) return Status::OK();
  std::vector<Entry*> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries.reserve(entries_.size());
    for (const auto& e : entries_) entries.push_back(e.get());
  }
  Status first = Status::OK();
  for (Entry* entry : entries) {
    if (entry->journal == nullptr) continue;
    const Status status = entry->journal->Flush(*entry->session);
    if (!status.ok() && first.ok()) first = status;
  }
  return first;
}

int SessionManager::num_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(entries_.size());
}

std::vector<int> SessionManager::ListSessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> ids(entries_.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
  return ids;
}

Result<SessionStats> SessionManager::GetStats(int session_id) const {
  Entry* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (session_id < 0 || session_id >= static_cast<int>(entries_.size())) {
      return Status::OutOfRange("unknown session id " +
                                std::to_string(session_id));
    }
    entry = entries_[session_id].get();
  }
  std::lock_guard<std::mutex> lock(entry->mu);
  SessionStats stats = entry->stats;
  stats.queue_depth = entry->queue.size();
  return stats;
}

Status SessionManager::Submit(int session_id, const SessionCommand& command,
                              ApplyCallback done,
                              std::shared_ptr<TraceContext> trace,
                              bool force_verify) {
  Entry* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (session_id < 0 || session_id >= static_cast<int>(entries_.size())) {
      return Status::OutOfRange("unknown session id");
    }
    entry = entries_[session_id].get();
  }
  Pending pending{command, std::move(done), std::move(trace), 0,
                  force_verify};
  if (pending.trace != nullptr) {
    pending.enqueue_nanos = pending.trace->NowNanos();
  }
  bool schedule = false;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    entry->queue.push_back(std::move(pending));
    if (!entry->running) {
      entry->running = true;
      schedule = true;
    }
  }
  if (schedule) pool_.Submit([this, entry] { DrainEntry(entry); });
  return Status::OK();
}

void SessionManager::RunResolve(Entry* entry,
                                std::vector<ResolveWaiter>* waiters) {
  // Close the defer window on every trace that waited; the session/LP
  // spans of the shared solve land on the first waiter's trace (the
  // request that actually runs it).
  for (ResolveWaiter& waiter : *waiters) {
    if (waiter.trace == nullptr || !waiter.deferred) continue;
    waiter.trace->AddSpan(
        "coalesce.defer", -1, waiter.defer_start_nanos,
        waiter.trace->NowNanos() - waiter.defer_start_nanos);
  }
  // One Resolve() answers every deferred resolve request: each waiter
  // receives the same outcome, with `coalesced` recording how many
  // requests shared the solve beyond the first.
  Status status = Status::OK();
  CommandOutcome result;
  {
    TraceContext* primary =
        waiters->empty() ? nullptr : waiters->front().trace.get();
    ScopedCurrentTrace current(primary);
    // One solve answers the whole group, so one verification covers it:
    // verify when any folded request asked.
    bool force_verify = false;
    for (const ResolveWaiter& waiter : *waiters) {
      force_verify = force_verify || waiter.force_verify;
    }
    ScopedForceVerify verify_scope(force_verify);
    ScopedHoldVerify hold_verify;
    TraceScope apply_span("session.apply");
    apply_span.Label("command", "resolve");
    apply_span.Counter("coalesced",
                       static_cast<int64_t>(waiters->size()) - 1);
    auto outcome = entry->session->Apply(MakeResolve());
    status = outcome.status();
    if (outcome.ok()) {
      result = std::move(outcome).value();
      result.coalesced = static_cast<int>(waiters->size()) - 1;
    }
  }
  RecordResolveMetrics(status, result.report);
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    entry->stats.commands_applied +=
        static_cast<int64_t>(waiters->size());
    if (status.ok()) {
      entry->stats.resolves += 1;
      entry->stats.resolves_coalesced += result.coalesced;
      entry->stats.last_scaled_total = result.report.scaled_total;
    } else if (entry->stats.first_error.ok()) {
      entry->stats.first_error = status;
    }
  }
  for (size_t i = 0; i < waiters->size(); ++i) {
    if (!(*waiters)[i].done) continue;
    result.coalesced_away = i > 0;
    (*waiters)[i].done(status, result);
  }
  waiters->clear();
  // The answers are out: the held verify job's snapshot delays none.
  entry->session->EnqueueHeldVerify();
  MaybeSnapshot(entry);
}

void SessionManager::RecordResolveMetrics(const Status& status,
                                          const ResolveReport& report) {
  if (options_.metrics == nullptr) return;
  const SolverMetrics& m = solver_metrics_;
  if (!status.ok()) {
    m.resolve_failures->Increment();
    return;
  }
  m.pivots->Increment(report.pivots);
  m.phase1_pivots->Increment(report.phase1_pivots);
  // A warm start that still needed phase-1 pivots means the projected
  // basis was infeasible for the mutated LP (feasibility re-entry).
  if (report.warm_started && report.phase1_pivots > 0) {
    m.phase1_reentries->Increment();
  }
  m.bland_pivots->Increment(report.lp_stats.bland_pivots);
  m.dual_pivots->Increment(report.lp_stats.dual_pivots);
  m.refactorizations->Increment(report.refactorizations);
  m.reused_factorizations->Increment(report.lp_stats.reused_factorizations);
  switch (report.path) {
    case ResolvePath::kCold:
      m.resolve_cold->Increment();
      break;
    case ResolvePath::kIncremental:
      m.resolve_incremental->Increment();
      break;
    case ResolvePath::kColdFallback:
      m.resolve_cold_fallback->Increment();
      break;
  }
  if (report.full_reround) m.full_rerounds->Increment();
  if (report.num_shards > 0) {
    m.shard_dual_rounds->Increment(report.dual_rounds);
    m.shard_gap_ppm->Set(static_cast<int64_t>(report.shard_gap * 1e6));
  } else {
    // Eta-chain length is only meaningful on the monolithic path (shards
    // refactorize independently).
    m.eta_chain->Set(report.eta_chain_length);
  }
  m.kept_share_ppm->Set(
      static_cast<int64_t>(report.kept_utility_share * 1e6));
}

void SessionManager::DrainEntry(Entry* entry) {
  // Resolve requests deferred behind still-pending commands (coalescing);
  // flushed before the drain task gives the session up.
  std::vector<ResolveWaiter> pending_resolves;
  for (;;) {
    Pending item;
    bool more_pending = false;
    {
      std::lock_guard<std::mutex> lock(entry->mu);
      if (entry->queue.empty()) {
        if (!pending_resolves.empty()) {
          // Flush outside the lock, then re-check: the resolve may take a
          // while and new commands can arrive meanwhile.
          more_pending = true;
        } else {
          entry->running = false;
          return;
        }
      } else {
        item = std::move(entry->queue.front());
        entry->queue.pop_front();
      }
    }
    if (more_pending) {
      RunResolve(entry, &pending_resolves);
      continue;
    }
    // Queue wait: Submit() -> this worker picking the command up.
    if (item.trace != nullptr) {
      item.trace->AddSpan("admission.wait", -1, item.enqueue_nanos,
                          item.trace->NowNanos() - item.enqueue_nanos);
    }
    if (item.command.type == CommandType::kResolve) {
      ResolveWaiter waiter{std::move(item.done), std::move(item.trace), 0,
                           false, item.force_verify};
      if (waiter.trace != nullptr) {
        waiter.defer_start_nanos = waiter.trace->NowNanos();
      }
      pending_resolves.push_back(std::move(waiter));
      bool defer = false;
      if (options_.coalesce_resolves) {
        std::lock_guard<std::mutex> lock(entry->mu);
        defer = !entry->queue.empty();
      }
      if (defer) {
        pending_resolves.back().deferred = true;
      } else {
        RunResolve(entry, &pending_resolves);
      }
      continue;
    }
    // Apply outside the lock: one drain task owns the session at a time,
    // so the session itself needs no synchronization.
    Status status = Status::OK();
    CommandOutcome result;
    {
      ScopedCurrentTrace current(item.trace.get());
      TraceScope apply_span("session.apply");
      apply_span.Label("command", CommandTypeName(item.command.type));
      auto outcome = entry->session->Apply(item.command);
      status = outcome.status();
      if (outcome.ok()) result = std::move(outcome).value();
    }
    {
      std::lock_guard<std::mutex> lock(entry->mu);
      entry->stats.commands_applied += 1;
      entry->stats.num_users = entry->session->instance().num_users();
      entry->stats.num_items = entry->session->instance().num_items();
      if (!status.ok() && entry->stats.first_error.ok()) {
        entry->stats.first_error = status;
      }
    }
    if (item.done) item.done(status, result);
    MaybeSnapshot(entry);
  }
}

void SessionManager::Drain() { pool_.Wait(); }

const Session& SessionManager::session(int session_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  // at(): an unknown id throws instead of reading out of bounds (Submit
  // returns a Status for the same input; accessors have no error channel).
  return *entries_.at(session_id)->session;
}

Status SessionManager::FirstError() const {
  std::vector<Entry*> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries.reserve(entries_.size());
    for (const auto& e : entries_) entries.push_back(e.get());
  }
  for (Entry* entry : entries) {
    std::lock_guard<std::mutex> lock(entry->mu);
    if (!entry->stats.first_error.ok()) return entry->stats.first_error;
  }
  return Status::OK();
}

}  // namespace savg
