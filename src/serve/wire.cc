#include "serve/wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/byte_codec.h"

namespace savg {

namespace {

bool KnownFrameKind(uint8_t kind) {
  switch (static_cast<FrameKind>(kind)) {
    case FrameKind::kApply:
    case FrameKind::kStatus:
    case FrameKind::kPing:
    case FrameKind::kShutdown:
    case FrameKind::kOk:
    case FrameKind::kOverloaded:
    case FrameKind::kBadRequest:
    case FrameKind::kError:
      return true;
  }
  return false;
}

}  // namespace

const char* FrameKindName(FrameKind kind) {
  switch (kind) {
    case FrameKind::kApply:
      return "apply";
    case FrameKind::kStatus:
      return "status";
    case FrameKind::kPing:
      return "ping";
    case FrameKind::kShutdown:
      return "shutdown";
    case FrameKind::kOk:
      return "ok";
    case FrameKind::kOverloaded:
      return "overloaded";
    case FrameKind::kBadRequest:
      return "bad-request";
    case FrameKind::kError:
      return "error";
  }
  return "?";
}

void AppendFrame(FrameKind kind, uint64_t request_id, uint32_t session_id,
                 const std::string& payload, std::string* out,
                 uint8_t flags) {
  out->append(kFrameMagic, sizeof(kFrameMagic));
  PutU8(kWireVersion, out);
  PutU8(static_cast<uint8_t>(kind), out);
  PutU8(flags, out);
  PutU8(0, out);  // reserved
  PutU64(request_id, out);
  PutU32(session_id, out);
  PutU32(static_cast<uint32_t>(payload.size()), out);
  out->append(payload);
}

Result<FrameHeader> ParseFrameHeader(const char* data, size_t size) {
  if (size < kFrameHeaderBytes) {
    return Status::InvalidArgument("frame header needs " +
                                   std::to_string(kFrameHeaderBytes) +
                                   " bytes, have " + std::to_string(size));
  }
  // The size check above makes every read below succeed.
  ByteReader in(data, size);
  const char* magic = nullptr;
  in.ReadBytes(sizeof(kFrameMagic), &magic);
  if (std::memcmp(magic, kFrameMagic, sizeof(kFrameMagic)) != 0) {
    return Status::InvalidArgument("bad frame magic");
  }
  FrameHeader header;
  in.ReadU8(&header.version);
  if (header.version != kWireVersion) {
    return Status::InvalidArgument("unsupported protocol version " +
                                   std::to_string(header.version));
  }
  uint8_t kind = 0;
  in.ReadU8(&kind);
  if (!KnownFrameKind(kind)) {
    return Status::InvalidArgument("unknown frame kind " +
                                   std::to_string(kind));
  }
  header.kind = static_cast<FrameKind>(kind);
  in.ReadU8(&header.flags);
  if ((header.flags & ~kKnownFrameFlags) != 0) {
    return Status::InvalidArgument("unknown frame flag bits");
  }
  uint8_t reserved = 0;
  in.ReadU8(&reserved);
  if (reserved != 0) {
    return Status::InvalidArgument("nonzero reserved frame bytes");
  }
  in.ReadU64(&header.request_id);
  in.ReadU32(&header.session_id);
  in.ReadU32(&header.payload_size);
  if (header.payload_size > kMaxPayloadBytes) {
    return Status::InvalidArgument(
        "frame payload length " + std::to_string(header.payload_size) +
        " exceeds the " + std::to_string(kMaxPayloadBytes) + "-byte limit");
  }
  return header;
}

void FrameReader::Feed(const char* data, size_t size) {
  // Compact once the consumed prefix dominates, so a long-lived
  // connection cannot grow the buffer without bound.
  if (offset_ > 4096 && offset_ * 2 > buffer_.size()) {
    buffer_.erase(0, offset_);
    offset_ = 0;
  }
  buffer_.append(data, size);
}

Result<bool> FrameReader::Next(FrameHeader* header, std::string* payload) {
  const size_t available = buffer_.size() - offset_;
  if (available < kFrameHeaderBytes) return false;
  auto parsed = ParseFrameHeader(buffer_.data() + offset_, available);
  if (!parsed.ok()) return parsed.status();
  if (available < kFrameHeaderBytes + parsed->payload_size) return false;
  *header = *parsed;
  payload->assign(buffer_.data() + offset_ + kFrameHeaderBytes,
                  parsed->payload_size);
  offset_ += kFrameHeaderBytes + parsed->payload_size;
  return true;
}

void EncodeApplyResult(const ApplyResult& result, std::string* out) {
  PutU8(static_cast<uint8_t>(result.code), out);
  PutU32(static_cast<uint32_t>(result.message.size()), out);
  out->append(result.message);
  PutU64(static_cast<uint64_t>(result.assigned_id), out);
  PutU8(result.resolved ? 1 : 0, out);
  PutU32(result.coalesced, out);
  PutF64(result.lp_objective, out);
  PutF64(result.scaled_total, out);
  PutF64(result.resolve_seconds, out);
  PutI32(result.pivots, out);
}

Result<ApplyResult> DecodeApplyResult(const char* data, size_t size) {
  // Fixed part before/after the variable-length message.
  constexpr size_t kPrefix = 1 + 4;
  constexpr size_t kSuffix = 8 + 1 + 4 + 8 + 8 + 8 + 4;
  if (size < kPrefix + kSuffix) {
    return Status::InvalidArgument("apply-result payload truncated");
  }
  // Past the two size checks every read below succeeds.
  ByteReader in(data, size);
  uint8_t code = 0;
  uint32_t msg_len = 0;
  in.ReadU8(&code);
  in.ReadU32(&msg_len);
  if (size != kPrefix + msg_len + kSuffix) {
    return Status::InvalidArgument("apply-result length mismatch");
  }
  ApplyResult result;
  result.code = static_cast<StatusCode>(code);
  const char* message = nullptr;
  in.ReadBytes(msg_len, &message);
  result.message.assign(message, msg_len);
  uint64_t assigned_id = 0;
  uint8_t resolved = 0;
  in.ReadU64(&assigned_id);
  in.ReadU8(&resolved);
  in.ReadU32(&result.coalesced);
  in.ReadF64(&result.lp_objective);
  in.ReadF64(&result.scaled_total);
  in.ReadF64(&result.resolve_seconds);
  in.ReadI32(&result.pivots);
  result.assigned_id = static_cast<int64_t>(assigned_id);
  result.resolved = resolved != 0;
  return result;
}

Status SendAll(int fd, const char* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return Status::Unknown(std::string("send failed: ") +
                             std::strerror(n < 0 ? errno : EPIPE));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<int> ConnectTcp(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Unknown(std::string("socket failed: ") +
                           std::strerror(errno));
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad IPv4 address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Unknown("connect to " + host + ":" +
                           std::to_string(port) + " failed: " + err);
  }
  return fd;
}

}  // namespace savg
