// Framed binary wire protocol of the serving front-end.
//
// Every message — request or response — is one frame:
//
//   offset size  field
//   0      4     magic "SVGF"
//   4      1     protocol version (1)
//   5      1     kind (FrameKind)
//   6      1     flags (kFrameFlag*; unknown bits rejected)
//   7      1     reserved (must be 0)
//   8      8     request id (u64, echoed verbatim in the response)
//   16     4     session id (u32; kApply requests only, else 0)
//   20     4     payload length (u32, <= kMaxPayloadBytes)
//   24     ...   payload
//
// Byte 6 was a reserved must-be-zero byte through protocol version 1's
// first deployment; it now carries per-request flags. Old clients send 0
// (no flags) and old servers reject any nonzero bit, so the repurposing
// is compatible in both directions. kFrameFlagTrace asks the server to
// force-collect a request trace (src/obs/) regardless of its sample rate;
// kFrameFlagVerify asks for post-solve self-verification of the resolve
// answering this request (obs/verify.h) regardless of its sample rate.
//
// all little-endian. Request payloads: kApply carries exactly one encoded
// SessionCommand (serve/session_command.h — the same canonical bytes the
// command log stores); kStatus/kPing/kShutdown are empty. Response
// payloads: kOk for an apply carries an encoded ApplyResult; kOk for a
// status request carries the server's status JSON; kOverloaded /
// kBadRequest / kError carry an encoded ApplyResult whose status explains
// the rejection.
//
// FrameReader is the incremental decoder used by both server and client:
// feed it arbitrary byte chunks from the socket and it yields complete
// frames, rejecting bad magic / versions / oversized lengths without ever
// reading past the buffer (the fuzz decode test drives it with truncated
// and corrupt streams). SendAll and ConnectTcp are the socket write and
// the TCP connect that server, client and HttpGet share.

#pragma once

#include <cstdint>
#include <string>

#include "serve/session_command.h"
#include "util/status.h"

namespace savg {

constexpr char kFrameMagic[4] = {'S', 'V', 'G', 'F'};
constexpr uint8_t kWireVersion = 1;
constexpr size_t kFrameHeaderBytes = 24;
/// Commands are tens of bytes and status JSON a few KB; anything near this
/// limit is a corrupt length field, not a real payload.
constexpr uint32_t kMaxPayloadBytes = 1u << 20;

enum class FrameKind : uint8_t {
  // Requests.
  kApply = 1,     ///< payload: one encoded SessionCommand
  kStatus = 2,    ///< payload: empty; response: status JSON
  kPing = 3,      ///< payload: empty; response: empty kOk
  kShutdown = 4,  ///< asks the server to stop serving (load-gen lifecycle)
  // Responses.
  kOk = 128,
  kOverloaded = 129,  ///< admission queue full — request was shed
  kBadRequest = 130,  ///< malformed frame/command payload
  kError = 131,       ///< command applied but failed (see ApplyResult)
};

const char* FrameKindName(FrameKind kind);

/// Frame flag bits (header byte 6).
constexpr uint8_t kFrameFlagTrace = 0x01;   ///< force-trace this request
constexpr uint8_t kFrameFlagVerify = 0x02;  ///< force-verify the resolve
constexpr uint8_t kKnownFrameFlags = kFrameFlagTrace | kFrameFlagVerify;

struct FrameHeader {
  uint8_t version = kWireVersion;
  FrameKind kind = FrameKind::kPing;
  uint8_t flags = 0;
  uint64_t request_id = 0;
  uint32_t session_id = 0;
  uint32_t payload_size = 0;
};

/// Appends one complete frame (header + payload) to `out`.
void AppendFrame(FrameKind kind, uint64_t request_id, uint32_t session_id,
                 const std::string& payload, std::string* out,
                 uint8_t flags = 0);

/// Parses a header from exactly kFrameHeaderBytes bytes. Rejects bad
/// magic, unknown version, unknown flag bits, a nonzero reserved byte,
/// and oversized payload lengths.
Result<FrameHeader> ParseFrameHeader(const char* data, size_t size);

/// Incremental frame extractor (see file comment).
class FrameReader {
 public:
  /// Appends raw socket bytes to the internal buffer.
  void Feed(const char* data, size_t size);

  /// Extracts the next complete frame. Returns true and fills
  /// header/payload when one is available, false when more bytes are
  /// needed, or an error Status on a malformed stream (the connection
  /// should be dropped — resync is impossible once framing is lost).
  Result<bool> Next(FrameHeader* header, std::string* payload);

  size_t buffered_bytes() const { return buffer_.size() - offset_; }

 private:
  std::string buffer_;
  size_t offset_ = 0;
};

// --- Apply-response payload ------------------------------------------------

/// Resolve telemetry of one answered apply request: enough for the load
/// generator to report client-observed latency/objective without a second
/// round trip.
struct ApplyResult {
  StatusCode code = StatusCode::kOk;
  std::string message;
  int64_t assigned_id = -1;
  bool resolved = false;
  /// Resolve requests folded into the same Resolve() (coalescing).
  uint32_t coalesced = 0;
  double lp_objective = 0.0;
  double scaled_total = 0.0;
  /// Server-side seconds spent in Resolve() (0 for pure mutations).
  double resolve_seconds = 0.0;
  int32_t pivots = 0;

  bool ok() const { return code == StatusCode::kOk; }
};

void EncodeApplyResult(const ApplyResult& result, std::string* out);
Result<ApplyResult> DecodeApplyResult(const char* data, size_t size);

// --- Socket helpers --------------------------------------------------------

/// send()s the whole buffer, retrying short writes and EINTR. MSG_NOSIGNAL:
/// a vanished peer surfaces as an error (EPIPE), not as a SIGPIPE.
Status SendAll(int fd, const char* data, size_t size);

/// A connected TCP socket to the IPv4 address `host` at `port`; the caller
/// owns (and closes) the returned descriptor.
Result<int> ConnectTcp(const std::string& host, int port);

}  // namespace savg
