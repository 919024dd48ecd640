#include "durability/session_store.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "durability/file_io.h"
#include "durability/snapshot.h"
#include "util/logging.h"

namespace savg {

namespace {

/// Matches "<prefix><decimal digits>" exactly (the SnapshotFileName /
/// ChangelogFileName shapes; %06u zero-pads but longer epochs print wider,
/// so the digit run is not fixed-length).
bool ParseEpochFileName(const char* name, const char* prefix,
                        uint32_t* epoch) {
  const size_t prefix_len = std::strlen(prefix);
  if (std::strncmp(name, prefix, prefix_len) != 0) return false;
  const char* digits = name + prefix_len;
  if (*digits == '\0') return false;
  uint64_t value = 0;
  for (const char* p = digits; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
    value = value * 10 + static_cast<uint64_t>(*p - '0');
    if (value > UINT32_MAX) return false;
  }
  *epoch = static_cast<uint32_t>(value);
  return true;
}

}  // namespace

std::string SnapshotFileName(uint32_t epoch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "snapshot-%06u", epoch);
  return buf;
}

std::string ChangelogFileName(uint32_t epoch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "changelog-%06u", epoch);
  return buf;
}

Result<EpochInventory> ScanSessionDir(const std::string& dir) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) {
    return Status::Unknown("opendir(" + dir + "): " + std::strerror(errno));
  }
  EpochInventory inventory;
  while (struct dirent* entry = ::readdir(handle)) {
    uint32_t epoch = 0;
    if (ParseEpochFileName(entry->d_name, "snapshot-", &epoch)) {
      inventory.snapshot_epochs.push_back(epoch);
    } else if (ParseEpochFileName(entry->d_name, "changelog-", &epoch)) {
      inventory.changelog_epochs.push_back(epoch);
    }
  }
  ::closedir(handle);
  std::sort(inventory.snapshot_epochs.begin(),
            inventory.snapshot_epochs.end());
  std::sort(inventory.changelog_epochs.begin(),
            inventory.changelog_epochs.end());
  return inventory;
}

Status EnsureDirectory(const std::string& path) {
  if (path.empty()) return Status::InvalidArgument("empty directory path");
  // mkdir -p: create each prefix, tolerating the ones that exist.
  for (size_t pos = 1; pos <= path.size(); ++pos) {
    if (pos != path.size() && path[pos] != '/') continue;
    const std::string prefix = path.substr(0, pos);
    if (::mkdir(prefix.c_str(), 0755) == 0) {
      // The new entry is durable only once its parent is synced.
      SAVG_RETURN_NOT_OK(SyncDirectory(DirnameOf(prefix)));
    } else if (errno != EEXIST) {
      return Status::Unknown("mkdir(" + prefix +
                             "): " + std::strerror(errno));
    }
  }
  return Status::OK();
}

SessionJournal::SessionJournal(std::string session_dir, uint32_t session_id,
                               SessionStore* store, size_t index)
    : session_dir_(std::move(session_dir)),
      session_id_(session_id),
      store_(store),
      index_(index),
      options_(&store->options_),
      metrics_(&store->metrics_) {}

Status SessionJournal::OpenChangelog(uint32_t epoch) {
  SAVG_ASSIGN_OR_RETURN(
      writer_, ChangelogWriter::Create(
                   session_dir_ + "/" + ChangelogFileName(epoch),
                   session_id_, epoch, seq_, options_->fsync, metrics_));
  epoch_ = epoch;
  return Status::OK();
}

Status SessionJournal::Append(const SessionCommand& command, bool resolved) {
  if (failed_) {
    return Status::FailedPrecondition(
        "session journal failed; awaiting snapshot re-anchor");
  }
  if (writer_ == nullptr) return Status::InvalidArgument("journal closed");
  const Status appended = writer_->Append(command, resolved);
  if (!appended.ok()) {
    // Fail-stop: the caller already applied the mutation this record
    // describes, so the changelog no longer replays to the live state.
    // Poison the journal — Session::Apply refuses further commands and
    // ShouldSnapshot() demands the re-anchoring snapshot — instead of
    // appending past a silent gap.
    SetFailed(true);
    return appended;
  }
  ++seq_;
  ++commands_since_snapshot_;
  store_->PublishLag(index_, commands_since_snapshot_);
  return Status::OK();
}

bool SessionJournal::ShouldSnapshot() const {
  // A poisoned journal needs a snapshot to re-anchor: its state advanced
  // past what the changelog holds, regardless of the usual triggers.
  if (failed_) return true;
  if (commands_since_snapshot_ == 0) return false;
  if (options_->snapshot_every_commands > 0 &&
      commands_since_snapshot_ >=
          static_cast<uint64_t>(options_->snapshot_every_commands)) {
    return true;
  }
  if (options_->snapshot_interval_seconds > 0.0 &&
      since_snapshot_.ElapsedSeconds() >=
          options_->snapshot_interval_seconds) {
    return true;
  }
  return false;
}

Status SessionJournal::TakeSnapshot(const Session& session) {
  const uint32_t next_epoch = epoch_ + 1;
  // Rotation order matters for crash safety: (1) write + rename the new
  // snapshot, (2) close the old changelog, (3) open the new one, (4) prune.
  // A crash between any two steps leaves the previous epoch's pair intact.
  SAVG_RETURN_NOT_OK(
      WriteSnapshotFile(session_dir_ + "/" + SnapshotFileName(next_epoch),
                        session_id_, next_epoch, seq_,
                        session.CaptureState()));
  if (writer_ != nullptr) {
    const Status closed = writer_->Close();
    if (!closed.ok()) {
      SAVG_LOG(Warning) << "durability: changelog close failed: "
                        << closed.message();
    }
    writer_.reset();
  }
  const Status opened = OpenChangelog(next_epoch);
  if (!opened.ok()) {
    // Snapshot next_epoch is durable but has no changelog to extend it.
    // epoch_ stays put, so the retry rewrites that snapshot and opens its
    // changelog: no epoch on disk lacks a changelog, and a cold replay
    // from the oldest epoch still finds every one. Poison the journal so
    // Append refuses instead of hitting a closed writer forever, and
    // ShouldSnapshot() keeps retrying the rotation.
    SetFailed(true);
    SAVG_LOG(Error) << "durability: changelog rotation to epoch "
                    << next_epoch << " failed (" << opened.message()
                    << "); journal fail-stopped until a retry succeeds";
    return opened;
  }
  SetFailed(false);
  commands_since_snapshot_ = 0;
  since_snapshot_.Reset();
  if (metrics_->snapshots != nullptr) metrics_->snapshots->Increment();
  store_->PublishLag(index_, 0);
  PruneOldEpochs();
  return Status::OK();
}

void SessionJournal::SetFailed(bool failed) {
  if (failed == failed_) return;
  failed_ = failed;
  if (metrics_->journal_failed != nullptr) {
    metrics_->journal_failed->Increment(failed ? 1 : -1);
  }
}

void SessionJournal::PruneOldEpochs() {
  const int keep = options_->keep_epochs < 1 ? 1 : options_->keep_epochs;
  // Epochs <= epoch_ - keep are beyond the retention window. Walk down
  // until a missing pair (already pruned earlier).
  for (int64_t old = static_cast<int64_t>(epoch_) - keep; old >= 0; --old) {
    const std::string snapshot =
        session_dir_ + "/" + SnapshotFileName(static_cast<uint32_t>(old));
    const std::string changelog =
        session_dir_ + "/" + ChangelogFileName(static_cast<uint32_t>(old));
    const bool had_snapshot = ::unlink(snapshot.c_str()) == 0;
    const bool had_changelog = ::unlink(changelog.c_str()) == 0;
    if (!had_snapshot && !had_changelog) break;
  }
}

Status SessionJournal::Sync() {
  if (writer_ == nullptr) return Status::OK();
  return writer_->Sync();
}

Status SessionJournal::Flush(const Session& session) {
  // A poisoned journal flushes via snapshot unconditionally: its state
  // advanced past the changelog, so Sync() alone cannot make it durable.
  if (failed_ ||
      (options_->final_snapshot_on_shutdown && commands_since_snapshot_ > 0)) {
    return TakeSnapshot(session);
  }
  return Sync();
}

SessionStore::SessionStore(DurabilityOptions options,
                           MetricsRegistry* registry)
    : options_(std::move(options)),
      metrics_(DurabilityMetrics::FromRegistry(registry)) {}

void SessionStore::PublishLag(size_t index, uint64_t lag) {
  if (metrics_.changelog_lag == nullptr) return;
  std::lock_guard<std::mutex> lock(lag_mu_);
  const uint64_t previous = lags_[index];
  lags_[index] = lag;
  if (lag >= max_lag_) {
    max_lag_ = lag;
  } else if (previous == max_lag_) {
    // The worst journal shrank (it snapshotted): rescan. Snapshots are
    // rare next to appends, so the scan stays off the common path.
    max_lag_ = *std::max_element(lags_.begin(), lags_.end());
  }
  metrics_.changelog_lag->Set(static_cast<int64_t>(max_lag_));
}

std::string SessionStore::SessionDir(uint32_t session_id) const {
  return options_.data_dir + "/session-" + std::to_string(session_id);
}

Result<SessionJournal*> SessionStore::Attach(uint32_t session_id,
                                             const Session& session,
                                             uint32_t epoch,
                                             uint64_t applied_seq) {
  if (options_.data_dir.empty()) {
    return Status::InvalidArgument("durability data_dir not set");
  }
  const std::string dir = SessionDir(session_id);
  SAVG_RETURN_NOT_OK(EnsureDirectory(dir));
  if (epoch == 0 && applied_seq == 0 &&
      !options_.overwrite_existing_on_attach) {
    // A fresh attach writes snapshot-000000 and truncates changelog-000000;
    // doing that over a populated directory would destroy a previous run's
    // durable state. Recovery re-attaches at last_epoch + 1, so only the
    // fresh-session path can collide.
    SAVG_ASSIGN_OR_RETURN(EpochInventory inventory, ScanSessionDir(dir));
    if (!inventory.empty()) {
      return Status::FailedPrecondition(
          dir + " already holds durable state; recover it (RecoveryManager) "
          "or set DurabilityOptions::overwrite_existing_on_attach to "
          "discard it");
    }
  }
  auto journal = std::unique_ptr<SessionJournal>(
      new SessionJournal(dir, session_id, this, journals_.size()));
  journal->seq_ = applied_seq;
  // The attach snapshot anchors the epoch: recovery always finds a
  // snapshot matching the changelog it replays, even for epoch 0.
  SAVG_RETURN_NOT_OK(
      WriteSnapshotFile(dir + "/" + SnapshotFileName(epoch), session_id,
                        epoch, applied_seq, session.CaptureState()));
  SAVG_RETURN_NOT_OK(journal->OpenChangelog(epoch));
  journal->PruneOldEpochs();
  {
    std::lock_guard<std::mutex> lock(lag_mu_);
    lags_.push_back(0);
  }
  journals_.push_back(std::move(journal));
  return journals_.back().get();
}

}  // namespace savg
