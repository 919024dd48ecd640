// Append-only per-session changelog (the durability write path).
//
// One changelog file holds the commands a Session applied after the
// snapshot that opened its epoch (the state-machine + changelog + snapshot
// pattern; the SVGB command codec from serve/session_command.h is reused
// per record, streamed instead of count-prefixed so a crash can land
// mid-record without corrupting anything before it). Layout:
//
//   header:  "SVGL" magic | u32 version | u32 session_id
//            | u32 epoch | u64 first_seq          (24 bytes, fsync'd once)
//   record:  u32 payload_len | u32 crc32(payload) | payload
//            where payload = EncodeCommand(cmd)   (repeated)
//
// `first_seq` is the session's applied-command sequence number of the
// first record, which equals the applied_seq of the snapshot that rotated
// this epoch in — recovery checks the continuity.
//
// Torn-tail tolerance (the crash contract): ReadChangelogFile() replays
// records until the first truncated length/CRC-failing/undecodable record
// and DISCARDS the tail from there — a kill -9 mid-append loses at most
// the records the fsync policy had not yet made durable, never the valid
// prefix. A torn tail is reported, not an error.
//
// Fsync policies trade durability lag against append latency:
//   kNever    — page cache only (fastest; loses up to everything unsynced)
//   kEveryN   — fsync every N appends (N=1 = every command)
//   kInterval — fsync when >= interval_ms elapsed since the last one
//               (checked at append time; no timer thread)
//   kOnResolve— fsync on each kResolve append (mutations between resolves
//               ride with the next resolve's sync; the serving default —
//               a lost un-resolved mutation was never visible in a served
//               configuration)

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "metrics/registry.h"
#include "serve/session_command.h"
#include "util/logging.h"
#include "util/status.h"

namespace savg {

struct FsyncPolicy {
  enum class Mode { kNever, kEveryN, kInterval, kOnResolve };
  Mode mode = Mode::kOnResolve;
  /// kEveryN: appends between fsyncs (1 = every command).
  int every_n = 1;
  /// kInterval: maximum un-synced age in milliseconds.
  double interval_ms = 50.0;
};

/// Parses "never" | "command" | "every:N" | "interval:MS" | "resolve".
Result<FsyncPolicy> ParseFsyncPolicy(const std::string& text);
/// The inverse of ParseFsyncPolicy (flag echo / logs).
std::string FsyncPolicyToString(const FsyncPolicy& policy);

/// Cached metric handles for the durability layer (registry lookups take a
/// mutex; appends ride the serving hot path). All pointers may be null
/// (metrics disabled).
struct DurabilityMetrics {
  Counter* appends = nullptr;
  Counter* fsyncs = nullptr;
  Counter* snapshots = nullptr;
  Counter* recoveries = nullptr;
  Histogram* fsync_latency = nullptr;
  Histogram* recovery_latency = nullptr;
  /// The most commands any journal of the store has applied since its
  /// last snapshot; the changelog-lag health rule watches its windowed max.
  Gauge* changelog_lag = nullptr;
  /// Journals currently fail-stopped (refusing commands until a snapshot
  /// re-anchors them); the journal_failed health rule watches it.
  Gauge* journal_failed = nullptr;

  static DurabilityMetrics FromRegistry(MetricsRegistry* registry);
};

class ChangelogWriter {
 public:
  /// Creates (truncates) `path`, writes + fsyncs the header.
  static Result<std::unique_ptr<ChangelogWriter>> Create(
      const std::string& path, uint32_t session_id, uint32_t epoch,
      uint64_t first_seq, FsyncPolicy policy,
      const DurabilityMetrics* metrics = nullptr);
  ~ChangelogWriter();

  ChangelogWriter(const ChangelogWriter&) = delete;
  ChangelogWriter& operator=(const ChangelogWriter&) = delete;

  /// Appends one record; fsyncs per the policy (`resolved` marks kResolve
  /// appends for kOnResolve).
  Status Append(const SessionCommand& command, bool resolved);
  /// Forces an fsync of everything appended so far.
  Status Sync();
  /// Sync + close (idempotent; also run by the destructor, which swallows
  /// the status — call Close() where the result matters).
  Status Close();

  const std::string& path() const { return path_; }
  uint64_t appended() const { return appended_; }

 private:
  ChangelogWriter(std::string path, int fd, FsyncPolicy policy,
                  const DurabilityMetrics* metrics);

  std::string path_;
  int fd_ = -1;
  FsyncPolicy policy_;
  const DurabilityMetrics* metrics_ = nullptr;
  uint64_t appended_ = 0;
  int unsynced_ = 0;
  /// Started at creation, restarted at every fsync (kInterval).
  Timer since_sync_;
};

/// Everything one changelog file yields at recovery.
struct ChangelogContents {
  uint32_t version = 0;
  uint32_t session_id = 0;
  uint32_t epoch = 0;
  uint64_t first_seq = 0;
  CommandLog commands;
  /// True when a truncated/CRC-failing tail was discarded (crash artifact,
  /// not an error); `tail_error` says why, `valid_bytes` where.
  bool torn_tail = false;
  std::string tail_error;
  uint64_t valid_bytes = 0;
};

/// Reads a changelog, stopping at the first invalid record (see the torn
/// tail contract above). A file truncated inside the HEADER (possible only
/// for a crash between file creation and the header fsync) yields empty
/// contents with torn_tail set; a wrong magic is an error.
Result<ChangelogContents> ReadChangelogFile(const std::string& path);

}  // namespace savg
