// The network serving front-end: a TCP server speaking the framed binary
// protocol (serve/wire.h) over a SessionManager, with admission control
// (serve/admission.h) and central metrics (metrics/registry.h).
//
// Request flow, one line per layer:
//
//   socket -> FrameReader -> decode SessionCommand   (reader thread)
//          -> AdmissionQueue (bounded; sheds kOverloaded when full)
//          -> SessionManager (per-session serialization + coalescing)
//          -> Session::Apply(command)                (worker thread)
//          -> completion callback -> response frame  (worker thread)
//
// Responses can therefore interleave arbitrarily with requests on one
// connection; the request id echoes back so clients can pipeline.
//
// A minimal HTTP/JSON front-end rides on the same dispatch: a connection
// whose first bytes are not the frame magic is treated as HTTP/1.0 and
// can GET /status (sessions + admission stats + metrics JSON), /metrics
// (MetricsRegistry dump; ?window=N returns the windowed time-series
// aggregate instead), /metrics.prom (Prometheus text exposition),
// /health (the rule-engine verdict; 503 when unhealthy), or
// /trace?last=N (recent request traces as Chrome trace-event JSON;
// &format=text renders a span tree) — handy for curl / dashboards while
// the binary protocol carries the traffic.
//
// Observability: every apply request can carry the kFrameFlagTrace wire
// flag (or land in the Tracer's 1-in-N sample) and then collects a
// hierarchical trace — admission wait, coalesce defer, session apply, LP
// phases, rounding — exported via /trace, the slow-query JSONL log, and
// serve.stage.* histograms (see src/obs/).
//
// Lifecycle: CreateSession() (before or after Start()), Start(),
// WaitForShutdown() (returns once a kShutdown frame arrives or
// Shutdown() is called), Shutdown(). The listener binds 127.0.0.1 only —
// this is a benchmark/serving harness, not a hardened public endpoint.

#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "durability/session_store.h"
#include "metrics/registry.h"
#include "metrics/timeseries.h"
#include "obs/health.h"
#include "obs/tracer.h"
#include "obs/verify.h"
#include "online/session_manager.h"
#include "serve/admission.h"
#include "serve/wire.h"

namespace savg {

struct ServerOptions {
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  int port = 0;
  /// SessionManager worker threads (<= 0 = all cores).
  int num_workers = 0;
  /// Fold pending resolves per session into one Resolve() (the serving
  /// default; see SessionManagerOptions::coalesce_resolves).
  bool coalesce_resolves = true;
  AdmissionOptions admission;
  /// Request tracing: sampling, slow-query log, /trace ring buffer.
  TracerOptions trace;
  /// Time-series metrics capture cadence (seconds); <= 0 disables the
  /// capture thread (tests drive CaptureMetricsWindow() directly).
  double metrics_interval_seconds = 1.0;
  /// Capture ring size (windows retained for GET /metrics?window=N).
  int metrics_windows = 256;
  /// Sampled post-solve self-verification (obs/verify.h).
  VerifierOptions verify;
  /// Session durability (src/durability/): an empty data_dir disables it;
  /// otherwise every session journals its command stream and snapshots
  /// periodically, and Shutdown() flushes (final snapshot per policy).
  DurabilityOptions durability;
};

class ServeServer {
 public:
  explicit ServeServer(ServerOptions options = {});
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Registers a serving session (callable before or after Start()).
  int CreateSession(SvgicInstance instance, SessionOptions options = {});

  /// Recovers every session persisted in durability.data_dir (crash
  /// restart path; see durability/recovery.h) and adopts them into the
  /// manager with fresh journals at last_epoch + 1. `base_options` must
  /// match the sessions' original options. Returns the number of sessions
  /// recovered. Call before Start().
  Result<int> RecoverSessions(SessionOptions base_options = {});

  /// Binds + listens + starts the accept thread.
  Status Start();
  /// The bound port (valid after Start()).
  int port() const { return port_; }

  /// Blocks until a kShutdown frame arrives or Shutdown() is called.
  void WaitForShutdown();
  /// Stops accepting, drops connections, drains pending commands.
  /// Idempotent; called by the destructor.
  void Shutdown();

  SessionManager& manager() { return manager_; }
  MetricsRegistry& metrics() { return metrics_; }
  AdmissionQueue& admission() { return admission_; }
  Tracer& tracer() { return tracer_; }
  MetricsTimeSeries& timeseries() { return timeseries_; }
  HealthMonitor& health() { return health_; }
  SolutionVerifier& verifier() { return verifier_; }

  /// The status command's JSON: per-session stats + admission counters +
  /// a full metrics snapshot.
  std::string StatusJson();

  /// Captures one time-series window and evaluates the health rules
  /// against it. The capture thread calls this every
  /// metrics_interval_seconds; tests call it directly (with an explicit
  /// interval to make windowed rates deterministic).
  void CaptureMetricsWindow(double interval_seconds = -1.0);

 private:
  /// One client connection; shared with in-flight completion callbacks,
  /// so a response races neither the reader loop nor a disconnect.
  struct Connection {
    int fd = -1;
    std::mutex write_mu;
    /// Held while the reader thread closes `fd` and while Shutdown() reads
    /// it; never across a blocking call, so Shutdown() cannot wait behind
    /// a send stuck on a peer that stopped reading.
    std::mutex close_mu;
    std::atomic<bool> open{true};
    /// Set as the last act of ServeConnection: the reader thread is about
    /// to return, so AcceptLoop may join it without blocking.
    std::atomic<bool> done{false};
  };
  /// An accepted connection and the thread serving it.
  struct ConnectionThread {
    std::shared_ptr<Connection> conn;
    std::thread thread;
  };

  void AcceptLoop();
  void ServeConnection(const std::shared_ptr<Connection>& conn);
  /// HTTP fallback for non-magic first bytes; `buffered` holds what the
  /// sniffer already consumed.
  void ServeHttp(const std::shared_ptr<Connection>& conn,
                 std::string buffered);
  void HandleFrame(const std::shared_ptr<Connection>& conn,
                   const FrameHeader& header, const std::string& payload);
  void SendFrame(const std::shared_ptr<Connection>& conn, FrameKind kind,
                 uint64_t request_id, uint32_t session_id,
                 const std::string& payload);
  void RequestShutdown();

  ServerOptions options_;
  MetricsRegistry metrics_;
  MetricsTimeSeries timeseries_;
  HealthMonitor health_;
  // The verifier must outlive manager_: sessions keep a pointer to it and
  // the manager's destructor drains their pending resolves.
  SolutionVerifier verifier_;
  // The store must outlive manager_ too: entries hold journal pointers the
  // manager's destructor may still flush through.
  std::unique_ptr<SessionStore> store_;
  SessionManager manager_;
  AdmissionQueue admission_;
  Tracer tracer_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;

  /// Periodic metrics capture (only when metrics_interval_seconds > 0).
  std::thread capture_thread_;
  std::mutex capture_mu_;
  std::condition_variable capture_cv_;
  bool capture_stop_ = false;

  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;

  /// Open connections; AcceptLoop joins and erases finished ones, so a
  /// long-running server holds one thread per open connection.
  std::mutex conns_mu_;
  std::vector<ConnectionThread> conns_;
};

}  // namespace savg
