// Minimal blocking client for the framed wire protocol (serve/wire.h).
//
// One ServeClient owns one TCP connection. Requests and responses are
// explicit so callers can pipeline: Send*() writes a frame and returns
// the request id; ReadResponse() blocks for the next response frame in
// arrival order (the server may reorder across sessions — match on
// ServeResponse::request_id). The convenience Apply() does one
// send + receive round trip.
//
// Retry (ClientRetryOptions, off by default): Apply() transparently
// retries on transport failures (connection reset / server restart —
// reconnects to the remembered host:port first) and on kOverloaded
// responses (backoff only; the connection is fine, the server shed the
// request), with capped exponential backoff plus deterministic jitter and
// a per-call retry budget. At-least-once caveat: a send that succeeded
// whose response was lost is re-sent on the new connection, so a
// non-idempotent command (kJoin, kAddItem) can be applied twice around a
// server restart — acceptable for the load generator and operator
// tooling this client serves; exactly-once needs request ids persisted
// server-side. Only Apply() retries; the pipelined Send*/ReadResponse
// pairs stay raw.
//
// Used by bench_serve_load, the serve tests, and svgic_cli.

#pragma once

#include <cstdint>
#include <string>

#include "metrics/registry.h"
#include "serve/wire.h"
#include "util/status.h"

namespace savg {

/// Apply() retry policy. max_retries = 0 (default) disables retrying and
/// makes Apply() behave exactly as before.
struct ClientRetryOptions {
  /// Retries per Apply() call beyond the first attempt.
  int max_retries = 0;
  double initial_backoff_ms = 5.0;
  /// The backoff doubles per retry up to this cap; each one is then
  /// scaled by a factor uniform in [0.8, 1.2] from a deterministic stream
  /// per client: the n-th client a process creates always draws the same
  /// schedule, so benches reproduce, and no two clients draw the same one.
  double max_backoff_ms = 200.0;
};

/// One response frame, with the apply payload decoded when present.
struct ServeResponse {
  FrameKind kind = FrameKind::kOk;
  uint64_t request_id = 0;
  /// Raw payload (status JSON for kStatus responses).
  std::string payload;
  /// Decoded payload for apply responses (kOk/kOverloaded/kBadRequest/
  /// kError with a non-empty payload).
  ApplyResult result;
  bool has_result = false;
};

class ServeClient {
 public:
  /// `registry`, when set, feeds the serve.client.retries counter.
  explicit ServeClient(ClientRetryOptions retry = {},
                       MetricsRegistry* registry = nullptr);
  ~ServeClient();

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// Connects to host:port (numeric IPv4 host, e.g. "127.0.0.1"). The
  /// address is remembered for retry reconnects.
  Status Connect(const std::string& host, int port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Retries Apply() performed over this client's lifetime.
  uint64_t retries() const { return retries_; }

  /// Each Send* writes one request frame and returns its request id.
  /// `trace` sets kFrameFlagTrace: the server then traces this request
  /// regardless of its sampling rate (GET /trace, slow-query log).
  /// `verify` sets kFrameFlagVerify: the resolve answering this request is
  /// self-verified off the hot path (obs/verify.h, verify.* metrics).
  Result<uint64_t> SendApply(uint32_t session_id,
                             const SessionCommand& command,
                             bool trace = false, bool verify = false);
  Result<uint64_t> SendStatus();
  Result<uint64_t> SendPing();
  Result<uint64_t> SendShutdown();

  /// Blocks until the next response frame arrives.
  Result<ServeResponse> ReadResponse();

  /// Send + receive one apply (no pipelining). Retries per the client's
  /// ClientRetryOptions (see the file comment for the semantics).
  Result<ServeResponse> Apply(uint32_t session_id,
                              const SessionCommand& command,
                              bool trace = false, bool verify = false);

  /// Fetches the server's status JSON (send + receive).
  Result<std::string> FetchStatus();

  /// The jittered delay before retry number `attempt` (0-based), drawn
  /// from this client's jitter stream; Apply() sleeps this long.
  double NextBackoffMs(int attempt);

 private:
  Result<uint64_t> SendFrame(FrameKind kind, uint32_t session_id,
                             const std::string& payload, uint8_t flags = 0);
  /// One uncounted backoff + bookkeeping step of the Apply() retry loop;
  /// reconnects when `reconnect` (transport failure) vs backoff-only
  /// (kOverloaded). Returns false when the budget is exhausted.
  bool PrepareRetry(int attempt, bool reconnect);

  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  FrameReader reader_;

  ClientRetryOptions retry_;
  Counter* retries_counter_ = nullptr;
  uint64_t retries_ = 0;
  uint64_t jitter_state_ = 0;
  std::string host_;
  int port_ = 0;
};

/// One-shot HTTP/1.0 GET against the server's HTTP front-end (the same
/// port as the binary protocol); returns the response body. Used by
/// `svgic_cli trace` and the CI trace-export step.
Result<std::string> HttpGet(const std::string& host, int port,
                            const std::string& path);

}  // namespace savg
