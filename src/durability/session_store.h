// Per-session durability state: the journal a live Session appends to and
// the store that lays sessions out on disk.
//
// On-disk layout under DurabilityOptions::data_dir:
//
//   <data_dir>/session-<id>/snapshot-<epoch>    (durability/snapshot.h)
//   <data_dir>/session-<id>/changelog-<epoch>   (durability/changelog.h)
//
// Epoch E's changelog holds the commands applied AFTER snapshot E; taking
// snapshot E+1 rotates a fresh changelog in and prunes epochs older than
// DurabilityOptions::keep_epochs (keeping more than one means a corrupt
// newest snapshot can still recover from the previous epoch at the cost of
// a longer replay).
//
// The SessionJournal is the CommandJournal a Session's Apply() feeds; the
// SessionManager checks ShouldSnapshot() after each drained command (while
// its drain task owns the session) and calls TakeSnapshot() in-band — no
// separate snapshot thread, and an idle session is never re-snapshotted
// (no new commands means no new state).

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "durability/changelog.h"
#include "online/session.h"
#include "util/logging.h"

namespace savg {

class SessionStore;

struct DurabilityOptions {
  /// Root directory for session-<id>/ subdirectories. Empty disables
  /// durability entirely (no journals are attached).
  std::string data_dir;
  FsyncPolicy fsync;
  /// Snapshot when this much wall time passed since the last one AND at
  /// least one command was applied in between. <= 0 disables the timer.
  double snapshot_interval_seconds = 30.0;
  /// Snapshot after this many commands regardless of the timer. <= 0
  /// disables the count trigger.
  int snapshot_every_commands = 1024;
  /// Snapshot/changelog epochs retained after a rotation (>= 1).
  int keep_epochs = 2;
  /// Graceful shutdown takes a final snapshot per session, making the next
  /// startup's replay empty. Benchmarks disable it to measure replay cost.
  bool final_snapshot_on_shutdown = true;
  /// Attach() of a FRESH session (epoch 0, applied_seq 0) refuses when the
  /// session directory already holds snapshot/changelog files — that state
  /// belongs to a previous run and must be recovered (or deliberately
  /// discarded by setting this flag) rather than silently truncated.
  bool overwrite_existing_on_attach = false;
};

/// The durability sink of one live Session. Owned by the SessionStore;
/// Append() runs on the session's drain task, so no locking is needed —
/// the same serialization that protects the Session protects its journal.
class SessionJournal : public CommandJournal {
 public:
  /// CommandJournal: append to the current epoch's changelog. The first
  /// failure poisons the journal (healthy() turns false): the command that
  /// failed mutated in-memory state the changelog now lacks, so continuing
  /// to append would leave a silent replay gap. Session::Apply refuses
  /// further commands until TakeSnapshot() re-anchors a clean epoch.
  Status Append(const SessionCommand& command, bool resolved) override;

  /// CommandJournal: false after an append or rotation failure, until a
  /// successful TakeSnapshot() re-anchors durability.
  bool healthy() const override { return !failed_; }

  /// True when the count or time trigger says the next snapshot is due —
  /// or when the journal is poisoned and needs a re-anchoring snapshot.
  bool ShouldSnapshot() const;

  /// Writes snapshot epoch+1 from `session`'s current state, rotates a
  /// fresh changelog in and prunes old epochs. The caller must own the
  /// session (drain task) — CaptureState() is only valid at a command
  /// boundary.
  Status TakeSnapshot(const Session& session);

  /// Fsyncs the current changelog (shutdown flush).
  Status Sync();

  /// Graceful-shutdown flush: a final snapshot when the policy asks for
  /// one and commands were applied since the last (making the next
  /// startup's replay empty), otherwise just an fsync.
  Status Flush(const Session& session);

  uint32_t session_id() const { return session_id_; }
  uint32_t epoch() const { return epoch_; }
  /// Commands applied in the session's lifetime (snapshot applied_seq).
  uint64_t seq() const { return seq_; }

 private:
  friend class SessionStore;
  SessionJournal(std::string session_dir, uint32_t session_id,
                 SessionStore* store, size_t index);

  /// Opens `epoch`'s changelog and, once it is open, makes `epoch` current.
  Status OpenChangelog(uint32_t epoch);
  void PruneOldEpochs();
  /// Sets failed_ and keeps the durability.journal_failed gauge in step.
  void SetFailed(bool failed);

  std::string session_dir_;
  uint32_t session_id_ = 0;
  SessionStore* store_ = nullptr;
  /// This journal's slot in the store's per-journal lag table.
  size_t index_ = 0;
  const DurabilityOptions* options_ = nullptr;
  const DurabilityMetrics* metrics_ = nullptr;
  std::unique_ptr<ChangelogWriter> writer_;
  uint32_t epoch_ = 0;
  uint64_t seq_ = 0;
  uint64_t commands_since_snapshot_ = 0;
  /// Started at attach, restarted at every snapshot (the interval timer).
  Timer since_snapshot_;
  /// Set on append/rotation failure; cleared by a successful TakeSnapshot.
  bool failed_ = false;
};

/// Owns the journals of every durable session in one data_dir.
class SessionStore {
 public:
  explicit SessionStore(DurabilityOptions options,
                        MetricsRegistry* registry = nullptr);

  /// Creates <data_dir>/session-<id>/, writes snapshot `epoch` from the
  /// session's current state and opens changelog `epoch`. For a fresh
  /// session epoch/applied_seq are 0; recovery re-attaches at
  /// last_epoch + 1 so replayed history is never appended twice. A fresh
  /// attach over a directory that already holds snapshot/changelog files
  /// is refused unless overwrite_existing_on_attach is set. Returns a
  /// journal owned by the store (stable pointer; attach it with
  /// Session::set_journal).
  Result<SessionJournal*> Attach(uint32_t session_id, const Session& session,
                                 uint32_t epoch = 0, uint64_t applied_seq = 0);

  const DurabilityOptions& options() const { return options_; }
  const DurabilityMetrics& metrics() const { return metrics_; }

  /// <data_dir>/session-<id>.
  std::string SessionDir(uint32_t session_id) const;

 private:
  friend class SessionJournal;
  /// Records journal `index`'s commands since its last snapshot and
  /// publishes the maximum over every journal as durability.changelog_lag
  /// (the worst-case replay length the health rule watches). Journals run
  /// on different drain tasks, hence the lock.
  void PublishLag(size_t index, uint64_t lag);

  DurabilityOptions options_;
  DurabilityMetrics metrics_;
  std::vector<std::unique_ptr<SessionJournal>> journals_;
  std::mutex lag_mu_;
  std::vector<uint64_t> lags_;  ///< per journal, guarded by lag_mu_
  uint64_t max_lag_ = 0;        ///< guarded by lag_mu_
};

/// snapshot-%06u / changelog-%06u names (shared with RecoveryManager).
std::string SnapshotFileName(uint32_t epoch);
std::string ChangelogFileName(uint32_t epoch);

/// The epoch files one session directory holds, enumerated via readdir so
/// arbitrarily high epoch numbers (long-lived sessions whose low epochs
/// were pruned) are found without probing. Both lists are ascending.
struct EpochInventory {
  std::vector<uint32_t> snapshot_epochs;
  std::vector<uint32_t> changelog_epochs;
  bool empty() const {
    return snapshot_epochs.empty() && changelog_epochs.empty();
  }
};
Result<EpochInventory> ScanSessionDir(const std::string& dir);

/// mkdir -p. OK when the directory already exists; fsyncs the parent of
/// each directory it creates.
Status EnsureDirectory(const std::string& path);

}  // namespace savg
