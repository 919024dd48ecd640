#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>

#include "durability/recovery.h"
#include "obs/structured_log.h"
#include "util/logging.h"

namespace savg {

namespace {

constexpr size_t kRecvChunk = 64 * 1024;
/// An HTTP request line + headers larger than this is not our tiny
/// status front-end talking.
constexpr size_t kMaxHttpRequestBytes = 16 * 1024;

}  // namespace

ServeServer::ServeServer(ServerOptions options)
    : options_(options),
      timeseries_(&metrics_, options.metrics_windows),
      health_(options.admission.max_queue_depth),
      verifier_(&metrics_, options.verify),
      store_(options.durability.data_dir.empty()
                 ? nullptr
                 : std::make_unique<SessionStore>(options.durability,
                                                  &metrics_)),
      manager_(SessionManagerOptions{options.num_workers,
                                     options.coalesce_resolves, &metrics_,
                                     store_.get()}),
      admission_(&manager_, &metrics_, options.admission),
      tracer_(&metrics_, options.trace) {}

ServeServer::~ServeServer() { Shutdown(); }

int ServeServer::CreateSession(SvgicInstance instance,
                               SessionOptions options) {
  options.verifier = &verifier_;
  return manager_.CreateSession(std::move(instance), options);
}

Result<int> ServeServer::RecoverSessions(SessionOptions base_options) {
  if (store_ == nullptr) {
    return Status::InvalidArgument(
        "recovery needs durability.data_dir to be set");
  }
  RecoveryManager recovery(options_.durability.data_dir, base_options,
                           RecoveryOptions{}, &metrics_);
  SAVG_ASSIGN_OR_RETURN(std::vector<RecoveredSession> recovered,
                        recovery.RecoverAll());
  int count = 0;
  for (RecoveredSession& item : recovered) {
    // The recovery manager built the session without a verifier (options
    // carry pointers into THIS server); stamp them before adoption.
    SessionOptions options = base_options;
    options.verifier = &verifier_;
    options.verifier_session_id = item.session_id;
    std::unique_ptr<Session> session = Session::FromState(
        item.session->CaptureState(), options);
    const int id = manager_.AdoptSession(std::move(session),
                                         item.last_epoch + 1,
                                         item.applied_seq);
    if (static_cast<uint32_t>(id) != item.session_id) {
      return Status::InvalidArgument(
          "recovered session " + std::to_string(item.session_id) +
          " adopted as id " + std::to_string(id) +
          " (sessions must be adopted before CreateSession)");
    }
    LogEvent(LogLevel::kInfo, "serve.recovered",
             LogFields()
                 .Add("session", id)
                 .Add("applied_seq", item.applied_seq)
                 .Add("replayed", item.replayed_commands)
                 .Add("snapshot_epoch",
                      static_cast<int64_t>(item.snapshot_epoch))
                 .Add("torn_tail", item.torn_tail ? 1 : 0)
                 .Add("seconds", item.seconds));
    ++count;
  }
  return count;
}

Status ServeServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Unknown(std::string("socket(): ") +
                           std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Unknown("bind(127.0.0.1:" +
                           std::to_string(options_.port) + "): " + err);
  }
  if (::listen(listen_fd_, 128) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Unknown("listen(): " + err);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  if (options_.metrics_interval_seconds > 0.0) {
    capture_thread_ = std::thread([this] {
      const auto interval = std::chrono::duration<double>(
          options_.metrics_interval_seconds);
      std::unique_lock<std::mutex> lock(capture_mu_);
      while (!capture_stop_) {
        if (capture_cv_.wait_for(lock, interval,
                                 [this] { return capture_stop_; })) {
          break;
        }
        lock.unlock();
        CaptureMetricsWindow();
        lock.lock();
      }
    });
  }
  LogEvent(LogLevel::kInfo, "serve.listen",
           LogFields()
               .Add("port", port_)
               .Add("trace_sample", options_.trace.sample_every)
               .Add("slow_ms", options_.trace.slow_seconds * 1000.0)
               .Add("metrics_interval_s", options_.metrics_interval_seconds)
               .Add("verify_sample", options_.verify.sample_every));
  return Status::OK();
}

void ServeServer::CaptureMetricsWindow(double interval_seconds) {
  timeseries_.CaptureNow(interval_seconds);
  health_.Evaluate(timeseries_.Aggregate(1));
}

void ServeServer::AcceptLoop() {
  while (running_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by Shutdown()
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (!running_.load()) {
      ::close(fd);
      return;
    }
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (it->conn->done.load()) {
        it->thread.join();
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
    std::thread thread([this, conn] { ServeConnection(conn); });
    conns_.push_back({conn, std::move(thread)});
  }
}

void ServeServer::SendFrame(const std::shared_ptr<Connection>& conn,
                            FrameKind kind, uint64_t request_id,
                            uint32_t session_id,
                            const std::string& payload) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  AppendFrame(kind, request_id, session_id, payload, &frame);
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (!conn->open.load()) return;
  if (!SendAll(conn->fd, frame.data(), frame.size()).ok()) {
    conn->open.store(false);
  }
}

void ServeServer::HandleFrame(const std::shared_ptr<Connection>& conn,
                              const FrameHeader& header,
                              const std::string& payload) {
  const uint64_t request_id = header.request_id;
  const uint32_t session_id = header.session_id;
  switch (header.kind) {
    case FrameKind::kApply: {
      size_t consumed = 0;
      auto command =
          DecodeCommand(payload.data(), payload.size(), &consumed);
      if (!command.ok() || consumed != payload.size()) {
        ApplyResult bad;
        bad.code = StatusCode::kInvalidArgument;
        bad.message = command.ok() ? "trailing bytes after command"
                                   : command.status().message();
        std::string body;
        EncodeApplyResult(bad, &body);
        SendFrame(conn, FrameKind::kBadRequest, request_id, session_id,
                  body);
        return;
      }
      // Trace if the client set the wire flag, or the sampler picked
      // this request; unsampled requests still get slow-log coverage via
      // FinishUntraced.
      const char* command_name = CommandTypeName(command->type);
      std::shared_ptr<TraceContext> trace =
          tracer_.Sample((header.flags & kFrameFlagTrace) != 0, request_id,
                         session_id, command_name);
      const bool force_verify = (header.flags & kFrameFlagVerify) != 0;
      Timer request_timer;
      Status admitted = admission_.Submit(
          static_cast<int>(session_id), *command,
          [this, conn, request_id, session_id, trace, request_timer,
           command_name](const Status& status,
                         const CommandOutcome& outcome) {
            ApplyResult result;
            result.code = status.code();
            result.message = status.message();
            result.assigned_id = outcome.assigned_id;
            result.resolved = outcome.resolved;
            result.coalesced = static_cast<uint32_t>(outcome.coalesced);
            if (outcome.resolved) {
              result.lp_objective = outcome.report.lp_objective;
              result.scaled_total = outcome.report.scaled_total;
              result.resolve_seconds = outcome.report.total_seconds;
              result.pivots = outcome.report.pivots;
            }
            std::string body;
            EncodeApplyResult(result, &body);
            // Finish the trace BEFORE answering: once the client has the
            // response, the trace is visible at /trace and in the slow
            // log (the CI export step relies on this ordering).
            const char* verdict = status.ok() ? "ok" : "error";
            if (trace != nullptr) {
              tracer_.Finish(trace, verdict);
            } else {
              tracer_.FinishUntraced(request_id, session_id, command_name,
                                     request_timer.ElapsedSeconds(),
                                     verdict);
            }
            SendFrame(conn,
                      status.ok() ? FrameKind::kOk : FrameKind::kError,
                      request_id, session_id, body);
          },
          trace, force_verify);
      if (!admitted.ok()) {
        ApplyResult rejected;
        rejected.code = admitted.code();
        rejected.message = admitted.message();
        std::string body;
        EncodeApplyResult(rejected, &body);
        const bool overloaded =
            admitted.code() == StatusCode::kResourceExhausted;
        SendFrame(conn,
                  overloaded ? FrameKind::kOverloaded : FrameKind::kError,
                  request_id, session_id, body);
        if (overloaded) {
          LogEvent(LogLevel::kInfo, "serve.shed",
                   LogFields()
                       .Add("trace_id",
                            trace != nullptr ? trace->trace().trace_id
                                             : uint64_t{0})
                       .Add("request_id", request_id)
                       .Add("session", uint64_t{session_id})
                       .Add("command", command_name));
        }
        if (trace != nullptr) {
          tracer_.Finish(trace, overloaded ? "shed" : "error");
        }
      }
      return;
    }
    case FrameKind::kStatus:
      SendFrame(conn, FrameKind::kOk, request_id, 0, StatusJson());
      return;
    case FrameKind::kPing:
      SendFrame(conn, FrameKind::kOk, request_id, 0, "");
      return;
    case FrameKind::kShutdown:
      SendFrame(conn, FrameKind::kOk, request_id, 0, "");
      RequestShutdown();
      return;
    case FrameKind::kOk:
    case FrameKind::kOverloaded:
    case FrameKind::kBadRequest:
    case FrameKind::kError:
      break;  // response kinds are not valid requests
  }
  ApplyResult bad;
  bad.code = StatusCode::kInvalidArgument;
  bad.message = std::string("frame kind '") + FrameKindName(header.kind) +
                "' is not a request";
  std::string body;
  EncodeApplyResult(bad, &body);
  SendFrame(conn, FrameKind::kBadRequest, request_id, session_id, body);
}

void ServeServer::ServeConnection(const std::shared_ptr<Connection>& conn) {
  metrics_.GetGauge("serve.connections")->Increment();
  std::string sniff;
  char chunk[kRecvChunk];
  bool is_http = false;
  // Sniff the first four bytes: frame magic = binary protocol, anything
  // else = the HTTP/JSON status front-end.
  while (sniff.size() < sizeof(kFrameMagic)) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    sniff.append(chunk, static_cast<size_t>(n));
  }
  if (sniff.size() >= sizeof(kFrameMagic)) {
    is_http = std::memcmp(sniff.data(), kFrameMagic,
                          sizeof(kFrameMagic)) != 0;
    if (is_http) {
      ServeHttp(conn, std::move(sniff));
    } else {
      FrameReader reader;
      reader.Feed(sniff.data(), sniff.size());
      bool alive = true;
      while (alive && conn->open.load()) {
        FrameHeader header;
        std::string payload;
        for (;;) {
          auto next = reader.Next(&header, &payload);
          if (!next.ok()) {
            // Framing lost: answer once, then drop the connection.
            LogEvent(LogLevel::kInfo, "serve.bad_request",
                     LogFields().Add("reason", next.status().message()));
            ApplyResult bad;
            bad.code = StatusCode::kInvalidArgument;
            bad.message = next.status().message();
            std::string body;
            EncodeApplyResult(bad, &body);
            SendFrame(conn, FrameKind::kBadRequest, 0, 0, body);
            alive = false;
            break;
          }
          if (!*next) break;  // need more bytes
          HandleFrame(conn, header, payload);
        }
        if (!alive) break;
        const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
        if (n <= 0) {
          if (n < 0 && errno == EINTR) continue;
          break;
        }
        reader.Feed(chunk, static_cast<size_t>(n));
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    std::lock_guard<std::mutex> close_lock(conn->close_mu);
    conn->open.store(false);
    ::close(conn->fd);
    conn->fd = -1;
  }
  metrics_.GetGauge("serve.connections")->Decrement();
  conn->done.store(true);
}

void ServeServer::ServeHttp(const std::shared_ptr<Connection>& conn,
                            std::string buffered) {
  char chunk[kRecvChunk];
  while (buffered.find("\r\n\r\n") == std::string::npos &&
         buffered.size() < kMaxHttpRequestBytes) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;
    }
    buffered.append(chunk, static_cast<size_t>(n));
  }
  std::istringstream request(buffered);
  std::string method, path;
  request >> method >> path;
  std::string query;
  const size_t question = path.find('?');
  if (question != std::string::npos) {
    query = path.substr(question + 1);
    path.resize(question);
  }
  std::string body;
  std::string status_line = "HTTP/1.0 200 OK";
  std::string content_type = "application/json";
  if (method != "GET") {
    status_line = "HTTP/1.0 405 Method Not Allowed";
    body = "{\"error\": \"only GET is served here\"}";
  } else if (path == "/metrics") {
    // GET /metrics?window=N: rates + windowed p50/p99 aggregated over the
    // last N capture windows; without the parameter, the lifetime dump.
    long window = 0;
    std::istringstream params(query);
    std::string param;
    while (std::getline(params, param, '&')) {
      if (param.rfind("window=", 0) == 0) {
        window = std::atol(param.c_str() + 7);
      }
    }
    body = window > 0
               ? timeseries_.Aggregate(static_cast<int>(window)).JsonDump()
               : metrics_.JsonDump();
  } else if (path == "/metrics.prom") {
    content_type = "text/plain; version=0.0.4";
    body = metrics_.PrometheusDump();
  } else if (path == "/health") {
    // Load balancers speak status codes: ok/degraded still serve traffic
    // (200); unhealthy means stop sending it (503).
    if (health_.verdict().level == HealthLevel::kUnhealthy) {
      status_line = "HTTP/1.0 503 Service Unavailable";
    }
    body = health_.JsonDump();
  } else if (path == "/trace") {
    // GET /trace?last=N[&format=text]: the N most recent finished traces,
    // as Chrome trace-event JSON (Perfetto-loadable) or an indented tree.
    size_t last = 32;
    bool text = false;
    std::istringstream params(query);
    std::string param;
    while (std::getline(params, param, '&')) {
      if (param.rfind("last=", 0) == 0) {
        const long parsed = std::atol(param.c_str() + 5);
        if (parsed > 0) last = static_cast<size_t>(parsed);
      } else if (param == "format=text") {
        text = true;
      }
    }
    const std::vector<Trace> traces = tracer_.LastTraces(last);
    if (text) {
      content_type = "text/plain";
      body = TraceTextTree(traces);
    } else {
      body = ChromeTraceJson(traces);
    }
  } else if (path == "/status" || path == "/" || path == "/sessions") {
    body = StatusJson();
  } else {
    status_line = "HTTP/1.0 404 Not Found";
    body =
        "{\"error\": \"try /status, /metrics, /metrics.prom, /health or "
        "/trace\"}";
  }
  std::ostringstream response;
  response << status_line << "\r\n"
           << "Content-Type: " << content_type << "\r\n"
           << "Content-Length: " << body.size() << "\r\n"
           << "Connection: close\r\n\r\n"
           << body;
  const std::string text = response.str();
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->open.load()) (void)SendAll(conn->fd, text.data(), text.size());
}

std::string ServeServer::StatusJson() {
  std::ostringstream out;
  out.precision(9);
  out << "{\"sessions\": [";
  bool first = true;
  for (int id : manager_.ListSessions()) {
    auto stats = manager_.GetStats(id);
    if (!stats.ok()) continue;
    if (!first) out << ", ";
    first = false;
    const std::string error =
        stats->first_error.ok() ? "" : stats->first_error.ToString();
    out << "{\"id\": " << stats->session_id
        << ", \"users\": " << stats->num_users
        << ", \"items\": " << stats->num_items
        << ", \"commands\": " << stats->commands_applied
        << ", \"resolves\": " << stats->resolves
        << ", \"resolves_coalesced\": " << stats->resolves_coalesced
        << ", \"queue_depth\": " << stats->queue_depth
        << ", \"last_scaled_total\": " << stats->last_scaled_total
        << ", \"error\": \"" << JsonEscape(error) << "\"}";
  }
  const double resolves = static_cast<double>(
      metrics_.GetCounter("serve.resolves")->value());
  const double coalesced = static_cast<double>(
      metrics_.GetCounter("serve.resolves_coalesced")->value());
  const double total = resolves + coalesced;
  out << "], \"admission\": {\"queue_depth\": " << admission_.depth()
      << ", \"admitted\": " << admission_.admitted_count()
      << ", \"shed\": " << admission_.shed_count()
      << ", \"coalesce_ratio\": " << (total > 0 ? coalesced / total : 0.0)
      << "}, \"health\": " << health_.JsonDump() << ", "
      << metrics_.JsonDump().substr(1);
  return out.str();
}

void ServeServer::RequestShutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  if (!shutdown_requested_) {
    LogEvent(LogLevel::kInfo, "serve.shutdown",
             LogFields().Add("port", port_));
  }
  shutdown_requested_ = true;
  shutdown_cv_.notify_all();
}

void ServeServer::WaitForShutdown() {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
}

void ServeServer::Shutdown() {
  RequestShutdown();
  {
    std::lock_guard<std::mutex> lock(capture_mu_);
    capture_stop_ = true;
  }
  capture_cv_.notify_all();
  if (capture_thread_.joinable()) capture_thread_.join();
  if (!running_.exchange(false)) {
    // Never started (or already shut down): nothing to unwind.
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    manager_.Drain();
    manager_.FlushDurability();
    verifier_.Flush();
    return;
  }
  // Break the accept loop, then every reader loop, then wait for all
  // pending commands so completion callbacks fire before teardown. The
  // listener closes only once the accept loop stopped reading it.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (ConnectionThread& entry : conns_) {
      std::lock_guard<std::mutex> close_lock(entry.conn->close_mu);
      if (entry.conn->fd >= 0) ::shutdown(entry.conn->fd, SHUT_RDWR);
    }
  }
  for (;;) {
    std::thread t;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (conns_.empty()) break;
      t = std::move(conns_.back().thread);
      conns_.pop_back();
    }
    if (t.joinable()) t.join();
  }
  manager_.Drain();
  // Drained means every session is at a command boundary: flush the
  // journals (final snapshot per policy) so a graceful shutdown restarts
  // with an empty replay.
  const Status flushed = manager_.FlushDurability();
  if (!flushed.ok()) {
    SAVG_LOG(Warning) << "durability: shutdown flush failed: "
                      << flushed.message();
  }
  // Pending verifications finish before the final metrics dump so
  // verify.pass/fail are complete at quiesce.
  verifier_.Flush();
}

}  // namespace savg
