#include "serve/client.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "util/random.h"

namespace savg {
namespace {

/// Retry backoff: doubles per attempt, then scaled by a factor uniform in
/// [1 - kJitterFraction, 1 + kJitterFraction] drawn from a splitmix64
/// stream. Each client's stream starts from kJitterSeed mixed with the
/// client's creation index in the process, so clients that lose a server
/// together do not reconnect in lockstep.
constexpr double kBackoffMultiplier = 2.0;
constexpr double kJitterFraction = 0.2;
constexpr uint64_t kJitterSeed = 1;

std::atomic<uint64_t> clients_created{0};

/// The jitter stream's start for the next client: one splitmix64 step over
/// the seed plus the creation index, so adjacent clients' streams are
/// unrelated rather than shifted copies of one another.
uint64_t NextClientJitterSeed() {
  uint64_t state =
      kJitterSeed + clients_created.fetch_add(1, std::memory_order_relaxed);
  return SplitMix64(&state);
}

}  // namespace

ServeClient::ServeClient(ClientRetryOptions retry, MetricsRegistry* registry)
    : retry_(retry), jitter_state_(NextClientJitterSeed()) {
  if (registry != nullptr) {
    retries_counter_ = registry->GetCounter("serve.client.retries");
  }
}

ServeClient::~ServeClient() { Close(); }

Status ServeClient::Connect(const std::string& host, int port) {
  Close();
  SAVG_ASSIGN_OR_RETURN(const int fd, ConnectTcp(host, port));
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  reader_ = FrameReader();
  host_ = host;
  port_ = port;
  return Status::OK();
}

void ServeClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<uint64_t> ServeClient::SendFrame(FrameKind kind, uint32_t session_id,
                                        const std::string& payload,
                                        uint8_t flags) {
  if (fd_ < 0) return Status::InvalidArgument("not connected");
  const uint64_t id = next_request_id_++;
  std::string frame;
  AppendFrame(kind, id, session_id, payload, &frame, flags);
  SAVG_RETURN_NOT_OK(SendAll(fd_, frame.data(), frame.size()));
  return id;
}

Result<uint64_t> ServeClient::SendApply(uint32_t session_id,
                                        const SessionCommand& command,
                                        bool trace, bool verify) {
  std::string payload;
  EncodeCommand(command, &payload);
  const uint8_t flags =
      static_cast<uint8_t>((trace ? kFrameFlagTrace : 0) |
                           (verify ? kFrameFlagVerify : 0));
  return SendFrame(FrameKind::kApply, session_id, payload, flags);
}

Result<uint64_t> ServeClient::SendStatus() {
  return SendFrame(FrameKind::kStatus, 0, "");
}

Result<uint64_t> ServeClient::SendPing() {
  return SendFrame(FrameKind::kPing, 0, "");
}

Result<uint64_t> ServeClient::SendShutdown() {
  return SendFrame(FrameKind::kShutdown, 0, "");
}

Result<ServeResponse> ServeClient::ReadResponse() {
  if (fd_ < 0) return Status::InvalidArgument("not connected");
  FrameHeader header;
  std::string payload;
  for (;;) {
    auto next = reader_.Next(&header, &payload);
    SAVG_RETURN_NOT_OK(next.status());
    if (*next) break;
    char buf[4096];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unknown(std::string("recv failed: ") +
                              std::strerror(errno));
    }
    if (n == 0) return Status::Unknown("server closed the connection");
    reader_.Feed(buf, static_cast<size_t>(n));
  }
  ServeResponse response;
  response.kind = header.kind;
  response.request_id = header.request_id;
  response.payload = std::move(payload);
  const bool apply_kind = header.kind == FrameKind::kOverloaded ||
                          header.kind == FrameKind::kBadRequest ||
                          header.kind == FrameKind::kError ||
                          header.kind == FrameKind::kOk;
  if (apply_kind && !response.payload.empty() &&
      response.payload[0] != '{') {
    auto decoded = DecodeApplyResult(response.payload.data(),
                                     response.payload.size());
    if (decoded.ok()) {
      response.result = std::move(decoded).value();
      response.has_result = true;
    }
  }
  return response;
}

double ServeClient::NextBackoffMs(int attempt) {
  double backoff_ms = retry_.initial_backoff_ms;
  for (int i = 0; i < attempt; ++i) backoff_ms *= kBackoffMultiplier;
  if (backoff_ms > retry_.max_backoff_ms) backoff_ms = retry_.max_backoff_ms;
  const double unit = static_cast<double>(SplitMix64(&jitter_state_) >> 11) *
                      (1.0 / 9007199254740992.0);  // [0, 1)
  return backoff_ms * (1.0 + kJitterFraction * (2.0 * unit - 1.0));
}

bool ServeClient::PrepareRetry(int attempt, bool reconnect) {
  if (attempt >= retry_.max_retries) return false;
  const double backoff_ms = NextBackoffMs(attempt);
  if (backoff_ms > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(backoff_ms));
  }
  ++retries_;
  if (retries_counter_ != nullptr) retries_counter_->Increment();
  if (reconnect && !host_.empty()) {
    // A failed reconnect is fine: the next attempt's send reports "not
    // connected" and lands back here until the budget runs out.
    (void)Connect(host_, port_);
  }
  return true;
}

Result<ServeResponse> ServeClient::Apply(uint32_t session_id,
                                         const SessionCommand& command,
                                         bool trace, bool verify) {
  int attempt = 0;
  for (;;) {
    Status transport = SendApply(session_id, command, trace, verify).status();
    if (transport.ok()) {
      auto response = ReadResponse();
      if (response.ok()) {
        // kOverloaded is a healthy connection telling us to back off:
        // retry without reconnecting.
        if (response->kind == FrameKind::kOverloaded &&
            PrepareRetry(attempt++, /*reconnect=*/false)) {
          continue;
        }
        return response;
      }
      transport = response.status();
    }
    // Transport failure (send or read): the connection state is unknown,
    // so a retry reconnects first. See the at-least-once caveat in the
    // file comment.
    if (!PrepareRetry(attempt++, /*reconnect=*/true)) return transport;
  }
}

Result<std::string> HttpGet(const std::string& host, int port,
                            const std::string& path) {
  SAVG_ASSIGN_OR_RETURN(const int fd, ConnectTcp(host, port));
  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: " + host + "\r\n\r\n";
  Status sent = SendAll(fd, request.data(), request.size());
  if (!sent.ok()) {
    ::close(fd);
    return sent;
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      ::close(fd);
      return Status::Unknown("recv failed: " + err);
    }
    if (n == 0) break;  // server closes after one response (HTTP/1.0)
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    return Status::Unknown("malformed HTTP response");
  }
  if (response.rfind("HTTP/1.0 200", 0) != 0 &&
      response.rfind("HTTP/1.1 200", 0) != 0) {
    return Status::Unknown("HTTP error: " +
                           response.substr(0, response.find("\r\n")));
  }
  return response.substr(header_end + 4);
}

Result<std::string> ServeClient::FetchStatus() {
  SAVG_RETURN_NOT_OK(SendStatus().status());
  auto response = ReadResponse();
  SAVG_RETURN_NOT_OK(response.status());
  if (response->kind != FrameKind::kOk) {
    return Status::Unknown(std::string("status request failed: ") +
                            FrameKindName(response->kind));
  }
  return std::move(response->payload);
}

}  // namespace savg
