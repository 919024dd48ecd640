// Multiplexes many live Sessions over one worker pool.
//
// Sessions are single-threaded objects; the manager guarantees that the
// commands of one session are applied in submission order by at most one
// worker at a time (per-session serialization), while distinct sessions
// run concurrently on util/thread_pool. Submit() never blocks: it enqueues
// the command and schedules a drain task when the session is idle; a
// running drain task keeps consuming its session's queue until empty, so
// each session's command order is exactly its Submit() order regardless of
// the worker count.
//
// Submit() optionally takes a completion callback invoked (on the worker
// thread) with the command's Status and CommandOutcome — the serving
// front-end (src/serve/) uses this to answer wire requests.
//
// Coalescing (SessionManagerOptions::coalesce_resolves): when a kResolve
// command is popped while more commands are still pending for the same
// session, the resolve is deferred — the pending mutations are applied
// first and ONE Resolve() then answers every deferred resolve request with
// the same report (CommandOutcome::coalesced counts the folded requests).
// Each answered request therefore sees a configuration at least as fresh
// as the state it asked about. Final session state is identical to the
// uncoalesced order because mutations commute with resolve deferral: the
// folded resolves see the union of the mutations they would have seen
// one-by-one.
//
// Resolve reports are not retained: callers that aggregate them (benches,
// tests) collect them through the completion callback.

#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "metrics/registry.h"
#include "obs/trace.h"
#include "online/session.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace savg {

class SessionStore;
class SessionJournal;

struct SessionManagerOptions {
  /// Pool threads (<= 0 = all cores).
  int num_workers = 0;
  /// Fold pending resolves of one session into a single Resolve() (see
  /// class comment). Off by default: library users expect one Resolve per
  /// submitted kResolve; the serving front-end turns it on.
  bool coalesce_resolves = false;
  /// Solver-health telemetry sink: when set, every resolve's report feeds
  /// the lp.* / resolve.* / session.* / shard.* metrics (eta-chain length,
  /// Bland/stall activations, cold fallbacks, dual-gap rounds — see the
  /// metric catalog in README). nullptr disables.
  MetricsRegistry* metrics = nullptr;
  /// Durability (src/durability/): when set, every created/adopted session
  /// gets a journal attached (its Apply() stream lands in a changelog) and
  /// the drain tasks take snapshots in-band when the journal's count/time
  /// trigger fires — no separate snapshot thread, and a session is only
  /// ever snapshotted by the task that owns it. nullptr disables.
  SessionStore* store = nullptr;
};

/// Point-in-time view of one live session (the server's status command).
/// All fields are maintained under the per-session lock, so a snapshot is
/// consistent even while a drain task is mutating the session.
struct SessionStats {
  int session_id = -1;
  int num_users = 0;
  int num_items = 0;
  /// Commands applied so far (including resolves).
  int64_t commands_applied = 0;
  /// Resolve() calls actually performed.
  int64_t resolves = 0;
  /// Resolve requests answered by another request's Resolve() (coalesced
  /// away; 0 unless coalesce_resolves is on).
  int64_t resolves_coalesced = 0;
  /// Commands waiting in this session's queue right now.
  size_t queue_depth = 0;
  /// Scaled total utility of the last successful resolve.
  double last_scaled_total = 0.0;
  Status first_error = Status::OK();
};

/// Completion of one submitted command, invoked on the worker thread.
using ApplyCallback =
    std::function<void(const Status&, const CommandOutcome&)>;

class SessionManager {
 public:
  /// Starts `num_workers` pool threads (<= 0 = all cores).
  explicit SessionManager(int num_workers = 0)
      : SessionManager(SessionManagerOptions{num_workers, false}) {}
  explicit SessionManager(SessionManagerOptions options);
  /// Drains all pending commands, then joins the workers.
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Registers a live session; returns its id. The session's pairs are
  /// finalized by the Session constructor.
  int CreateSession(SvgicInstance instance, SessionOptions options = {});

  /// Registers a session rebuilt by the RecoveryManager. The journal (when
  /// a store is configured) re-attaches at `epoch` with sequence
  /// `applied_seq`, so the replayed history is never appended twice.
  /// Sessions must be adopted in recovered-id order before any
  /// CreateSession (ids are dense).
  int AdoptSession(std::unique_ptr<Session> session, uint32_t epoch,
                   uint64_t applied_seq);

  /// Flushes every session's journal — final snapshot per the store's
  /// policy, else fsync. Call after Drain() (no drain task may own a
  /// session). No-op without a store.
  Status FlushDurability();

  int num_sessions() const;
  /// Ids of every live session (dense, in creation order).
  std::vector<int> ListSessions() const;
  /// Stats snapshot of one session; safe to call while commands run.
  Result<SessionStats> GetStats(int session_id) const;

  /// Enqueues one command for `session_id`. Never blocks. Application
  /// errors are recorded (see FirstError) without stopping the stream;
  /// `done`, when given, is invoked on the worker thread once the command
  /// (or the resolve that coalesced it) completes. `trace`, when given,
  /// collects the request's spans: queue wait ("admission.wait"),
  /// coalesce defer, and — via the thread-local CurrentTrace() set around
  /// Session::Apply — the session/LP/rounding spans underneath
  /// "session.apply". A coalesced-away resolve keeps its own trace (defer
  /// span only); the solve's spans land on the request that ran it.
  /// `force_verify` requests post-solve self-verification of the resolve
  /// answering this command (obs/verify.h; no-op unless the session has a
  /// verifier). A coalesced group verifies when ANY folded request asked.
  Status Submit(int session_id, const SessionCommand& command,
                ApplyCallback done = nullptr,
                std::shared_ptr<TraceContext> trace = nullptr,
                bool force_verify = false);

  /// Blocks until every submitted command has been applied.
  void Drain();

  /// Read access; only safe after Drain() (or before any Submit).
  const Session& session(int session_id) const;
  /// First command-application error across all sessions, or OK.
  Status FirstError() const;

 private:
  struct Pending {
    SessionCommand command;
    ApplyCallback done;
    std::shared_ptr<TraceContext> trace;
    /// Trace offset at Submit (start of the "admission.wait" span).
    int64_t enqueue_nanos = 0;
    bool force_verify = false;
  };

  /// One resolve request awaiting RunResolve (deferred by coalescing, or
  /// about to run immediately).
  struct ResolveWaiter {
    ApplyCallback done;
    std::shared_ptr<TraceContext> trace;
    /// Trace offset when the request was popped (start of the defer span).
    int64_t defer_start_nanos = 0;
    bool deferred = false;
    bool force_verify = false;
  };

  /// Cached handles for the solver-health metrics (registry lookups take
  /// a mutex; resolves happen thousands of times a second).
  struct SolverMetrics {
    Counter* pivots = nullptr;
    Counter* phase1_pivots = nullptr;
    Counter* phase1_reentries = nullptr;
    Counter* bland_pivots = nullptr;
    Counter* dual_pivots = nullptr;
    Counter* refactorizations = nullptr;
    Counter* reused_factorizations = nullptr;
    Counter* resolve_cold = nullptr;
    Counter* resolve_incremental = nullptr;
    Counter* resolve_cold_fallback = nullptr;
    Counter* resolve_failures = nullptr;
    Counter* shard_dual_rounds = nullptr;
    Gauge* eta_chain = nullptr;
    Gauge* shard_gap_ppm = nullptr;
  };

  struct Entry {
    std::mutex mu;
    std::unique_ptr<Session> session;
    std::deque<Pending> queue;
    bool running = false;  ///< a drain task owns this session right now
    SessionStats stats;
    /// Durability journal (owned by the store; null without one).
    SessionJournal* journal = nullptr;
  };

  void DrainEntry(Entry* entry);
  /// Attaches a durability journal to a just-created entry (under mu_).
  void AttachJournal(Entry* entry, int id, uint32_t epoch,
                     uint64_t applied_seq);
  /// In-band snapshot check after a command completed; the calling drain
  /// task still owns the session.
  void MaybeSnapshot(Entry* entry);
  /// Runs one Resolve() answering `waiters` deferred resolve requests
  /// plus stats/report bookkeeping. Called with no locks held.
  void RunResolve(Entry* entry, std::vector<ResolveWaiter>* waiters);
  /// Feeds one resolve outcome into the solver-health metrics (no-op
  /// without SessionManagerOptions::metrics).
  void RecordResolveMetrics(const Status& status,
                            const ResolveReport& report);

  SessionManagerOptions options_;
  SolverMetrics solver_metrics_;
  mutable std::mutex mu_;  ///< guards entries_ growth
  std::vector<std::unique_ptr<Entry>> entries_;
  ThreadPool pool_;
};

}  // namespace savg
