#include "durability/changelog.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "durability/file_io.h"
#include "util/byte_codec.h"
#include "util/crc32.h"

namespace savg {

namespace {

constexpr char kChangelogMagic[4] = {'S', 'V', 'G', 'L'};
constexpr uint32_t kChangelogVersion = 1;
constexpr size_t kHeaderBytes = 4 + 4 + 4 + 4 + 8;
/// A single encoded command is ~25 bytes; anything near this is a corrupt
/// length field, not a record.
constexpr uint32_t kMaxRecordBytes = 1 << 20;

}  // namespace

Result<FsyncPolicy> ParseFsyncPolicy(const std::string& text) {
  FsyncPolicy policy;
  if (text == "never") {
    policy.mode = FsyncPolicy::Mode::kNever;
  } else if (text == "command") {
    policy.mode = FsyncPolicy::Mode::kEveryN;
    policy.every_n = 1;
  } else if (text == "resolve") {
    policy.mode = FsyncPolicy::Mode::kOnResolve;
  } else if (text.rfind("every:", 0) == 0) {
    const long n = std::atol(text.c_str() + 6);
    if (n <= 0) {
      return Status::InvalidArgument("fsync policy 'every:N' needs N > 0");
    }
    policy.mode = FsyncPolicy::Mode::kEveryN;
    policy.every_n = static_cast<int>(n);
  } else if (text.rfind("interval:", 0) == 0) {
    const double ms = std::atof(text.c_str() + 9);
    if (ms <= 0.0) {
      return Status::InvalidArgument(
          "fsync policy 'interval:MS' needs MS > 0");
    }
    policy.mode = FsyncPolicy::Mode::kInterval;
    policy.interval_ms = ms;
  } else {
    return Status::InvalidArgument(
        "unknown fsync policy '" + text +
        "' (try never | command | every:N | interval:MS | resolve)");
  }
  return policy;
}

std::string FsyncPolicyToString(const FsyncPolicy& policy) {
  std::ostringstream out;
  switch (policy.mode) {
    case FsyncPolicy::Mode::kNever:
      return "never";
    case FsyncPolicy::Mode::kEveryN:
      if (policy.every_n == 1) return "command";
      out << "every:" << policy.every_n;
      return out.str();
    case FsyncPolicy::Mode::kInterval:
      out << "interval:" << policy.interval_ms;
      return out.str();
    case FsyncPolicy::Mode::kOnResolve:
      return "resolve";
  }
  return "?";
}

DurabilityMetrics DurabilityMetrics::FromRegistry(MetricsRegistry* registry) {
  DurabilityMetrics metrics;
  if (registry == nullptr) return metrics;
  metrics.appends = registry->GetCounter("durability.appends");
  metrics.fsyncs = registry->GetCounter("durability.fsyncs");
  metrics.snapshots = registry->GetCounter("durability.snapshots");
  metrics.recoveries = registry->GetCounter("durability.recoveries");
  metrics.fsync_latency = registry->GetHistogram("durability.fsync_latency");
  metrics.recovery_latency =
      registry->GetHistogram("durability.recovery_latency");
  metrics.changelog_lag = registry->GetGauge("durability.changelog_lag");
  metrics.journal_failed = registry->GetGauge("durability.journal_failed");
  return metrics;
}

ChangelogWriter::ChangelogWriter(std::string path, int fd, FsyncPolicy policy,
                                 const DurabilityMetrics* metrics)
    : path_(std::move(path)),
      fd_(fd),
      policy_(policy),
      metrics_(metrics) {}

Result<std::unique_ptr<ChangelogWriter>> ChangelogWriter::Create(
    const std::string& path, uint32_t session_id, uint32_t epoch,
    uint64_t first_seq, FsyncPolicy policy,
    const DurabilityMetrics* metrics) {
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Unknown("open(" + path + "): " + std::strerror(errno));
  }
  std::string header;
  header.append(kChangelogMagic, sizeof(kChangelogMagic));
  PutU32(kChangelogVersion, &header);
  PutU32(session_id, &header);
  PutU32(epoch, &header);
  PutU64(first_seq, &header);
  Status written = WriteAll(fd, header.data(), header.size(), path);
  // The header fsync makes the epoch file itself durable, so a later torn
  // HEADER is (nearly) impossible — only record tails can tear.
  if (written.ok() && ::fsync(fd) != 0) {
    written = Status::Unknown("fsync(" + path + "): " +
                              std::strerror(errno));
  }
  // The directory fsync makes the file's entry durable: without it a power
  // cut could drop the whole file, acknowledged commands included.
  if (written.ok()) written = SyncDirectory(DirnameOf(path));
  if (!written.ok()) {
    ::close(fd);
    return written;
  }
  return std::unique_ptr<ChangelogWriter>(
      new ChangelogWriter(path, fd, policy, metrics));
}

ChangelogWriter::~ChangelogWriter() { Close(); }

Status ChangelogWriter::Append(const SessionCommand& command, bool resolved) {
  if (fd_ < 0) return Status::InvalidArgument("changelog is closed");
  std::string payload;
  EncodeCommand(command, &payload);
  std::string record;
  record.reserve(8 + payload.size());
  PutU32(static_cast<uint32_t>(payload.size()), &record);
  PutU32(Crc32(payload.data(), payload.size()), &record);
  record += payload;
  SAVG_RETURN_NOT_OK(WriteAll(fd_, record.data(), record.size(), path_));
  ++appended_;
  ++unsynced_;
  if (metrics_ != nullptr && metrics_->appends != nullptr) {
    metrics_->appends->Increment();
  }
  bool sync_now = false;
  switch (policy_.mode) {
    case FsyncPolicy::Mode::kNever:
      break;
    case FsyncPolicy::Mode::kEveryN:
      sync_now = unsynced_ >= policy_.every_n;
      break;
    case FsyncPolicy::Mode::kInterval:
      sync_now = since_sync_.ElapsedSeconds() * 1e3 >= policy_.interval_ms;
      break;
    case FsyncPolicy::Mode::kOnResolve:
      sync_now = resolved;
      break;
  }
  if (sync_now) return Sync();
  return Status::OK();
}

Status ChangelogWriter::Sync() {
  if (fd_ < 0) return Status::InvalidArgument("changelog is closed");
  if (unsynced_ == 0) return Status::OK();
  Timer fsync_timer;
  if (::fsync(fd_) != 0) {
    return Status::Unknown("fsync(" + path_ + "): " + std::strerror(errno));
  }
  unsynced_ = 0;
  since_sync_.Reset();
  if (metrics_ != nullptr) {
    if (metrics_->fsyncs != nullptr) metrics_->fsyncs->Increment();
    if (metrics_->fsync_latency != nullptr) {
      metrics_->fsync_latency->Observe(fsync_timer.ElapsedSeconds());
    }
  }
  return Status::OK();
}

Status ChangelogWriter::Close() {
  if (fd_ < 0) return Status::OK();
  Status synced = Sync();
  ::close(fd_);
  fd_ = -1;
  return synced;
}

Result<ChangelogContents> ReadChangelogFile(const std::string& path) {
  SAVG_ASSIGN_OR_RETURN(const std::string data,
                        ReadWholeFile(path, "changelog"));
  ChangelogContents contents;
  if (data.size() >= sizeof(kChangelogMagic) &&
      std::memcmp(data.data(), kChangelogMagic, sizeof(kChangelogMagic)) !=
          0) {
    return Status::InvalidArgument(path + " is not an SVGL changelog");
  }
  if (data.size() < kHeaderBytes) {
    // Crash between creation and the header fsync: nothing recoverable in
    // this epoch file, but that is a torn tail, not corruption.
    contents.torn_tail = true;
    contents.tail_error = "truncated header";
    return contents;
  }
  ByteReader bytes(data.data() + sizeof(kChangelogMagic),
                   data.size() - sizeof(kChangelogMagic));
  bytes.ReadU32(&contents.version);
  bytes.ReadU32(&contents.session_id);
  bytes.ReadU32(&contents.epoch);
  bytes.ReadU64(&contents.first_seq);
  if (contents.version != kChangelogVersion) {
    return Status::InvalidArgument(
        path + ": unsupported changelog version " +
        std::to_string(contents.version));
  }
  contents.valid_bytes = kHeaderBytes;
  while (bytes.remaining() > 0) {
    uint32_t len = 0, crc = 0;
    if (!bytes.ReadU32(&len) || !bytes.ReadU32(&crc)) {
      contents.torn_tail = true;
      contents.tail_error = "truncated record header";
      break;
    }
    if (len == 0 || len > kMaxRecordBytes) {
      contents.torn_tail = true;
      contents.tail_error = "corrupt record length";
      break;
    }
    const char* payload = nullptr;
    if (!bytes.ReadBytes(len, &payload)) {
      contents.torn_tail = true;
      contents.tail_error = "truncated record payload";
      break;
    }
    if (Crc32(payload, len) != crc) {
      contents.torn_tail = true;
      contents.tail_error = "record CRC mismatch";
      break;
    }
    size_t consumed = 0;
    auto command = DecodeCommand(payload, len, &consumed);
    if (!command.ok() || consumed != len) {
      contents.torn_tail = true;
      contents.tail_error = command.ok() ? "record length mismatch"
                                         : command.status().message();
      break;
    }
    contents.commands.push_back(*command);
    contents.valid_bytes = data.size() - bytes.remaining();
  }
  return contents;
}

}  // namespace savg
