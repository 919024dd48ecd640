// Tests of the durability stack (src/durability/): changelog framing with
// torn-tail tolerance at every byte offset, bit-exact snapshot round trips,
// crash recovery equal to uninterrupted execution (state digest + next
// resolve), fallback to the previous epoch past a corrupt or unreadable
// snapshot, warm recovery == cold replay after a healed rotation failure,
// the resolve-failure transparency regression, and client
// reconnect-with-backoff across a server restart.

#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "datagen/datasets.h"
#include "durability/changelog.h"
#include "durability/recovery.h"
#include "durability/session_store.h"
#include "durability/snapshot.h"
#include "metrics/registry.h"
#include "online/session.h"
#include "online/session_manager.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/session_command.h"
#include "util/byte_codec.h"
#include "util/crc32.h"
#include "util/random.h"

namespace savg {
namespace {

SvgicInstance RandomInstance(int n, int m, int k, double lambda,
                             uint64_t seed) {
  DatasetParams params;
  params.kind = DatasetKind::kTimik;
  params.num_users = n;
  params.num_items = m;
  params.num_slots = k;
  params.lambda = lambda;
  params.seed = seed;
  params.universe_users = 4 * n + 20;
  auto inst = GenerateDataset(params);
  EXPECT_TRUE(inst.ok()) << inst.status();
  return std::move(inst).value();
}

void RemoveTree(const std::string& path) {
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) {
    ::unlink(path.c_str());
    return;
  }
  while (dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    RemoveTree(path + "/" + name);
  }
  ::closedir(dir);
  ::rmdir(path.c_str());
}

/// A clean per-test scratch directory (stale files from a previous run
/// would read as extra epochs).
std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/savg_durability_" + name;
  RemoveTree(dir);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

uint64_t Digest(const Session& session) {
  return SessionStateDigest(session.CaptureState());
}

/// Deterministic mixed mutation/resolve stream (valid against an instance
/// that starts with n users and m items; joins grow n).
CommandLog BuildStream(int n, int m, int num_mutations, uint64_t seed) {
  CommandLog log;
  uint64_t s = seed;
  auto next = [&s]() {
    s += 0x9E3779B97F4A7C15ull;
    uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  log.push_back(MakeResolve());
  for (int i = 0; i < num_mutations; ++i) {
    const uint64_t r = next();
    const double value =
        0.05 + 0.9 * static_cast<double>((r >> 32) % 1000) / 1000.0;
    switch (r % 4) {
      case 0:
        log.push_back(MakePref(static_cast<UserId>(r % n),
                               static_cast<ItemId>((r >> 8) % m), value));
        break;
      case 1: {
        UserId u = static_cast<UserId>(r % n);
        UserId v = static_cast<UserId>((r >> 8) % n);
        if (v == u) v = (v + 1) % n;
        log.push_back(
            MakeTau(u, v, static_cast<ItemId>((r >> 16) % m), value));
        break;
      }
      case 2:
        log.push_back(MakeJoin());
        ++n;
        break;
      default:
        log.push_back(MakePref(static_cast<UserId>((r >> 4) % n),
                               static_cast<ItemId>((r >> 12) % m), value));
        break;
    }
    if (i % 5 == 4) log.push_back(MakeResolve());
  }
  log.push_back(MakeResolve());
  return log;
}

/// Applies the whole stream; with a journal, snapshots whenever the policy
/// says to (what SessionManager::MaybeSnapshot does in-band).
void ApplyAll(Session* session, const CommandLog& log,
              SessionJournal* journal = nullptr) {
  for (const SessionCommand& cmd : log) {
    auto outcome = session->Apply(cmd);
    ASSERT_TRUE(outcome.ok())
        << CommandTypeName(cmd.type) << ": " << outcome.status();
    if (journal != nullptr && journal->ShouldSnapshot()) {
      Status snap = journal->TakeSnapshot(*session);
      ASSERT_TRUE(snap.ok()) << snap;
    }
  }
}

// --- Fsync policy flag parsing ---------------------------------------------

TEST(FsyncPolicyTest, ParseAndEchoRoundTrip) {
  for (const char* text :
       {"never", "command", "every:4", "interval:25", "resolve"}) {
    auto policy = ParseFsyncPolicy(text);
    ASSERT_TRUE(policy.ok()) << text;
    EXPECT_EQ(FsyncPolicyToString(*policy), text);
  }
  EXPECT_FALSE(ParseFsyncPolicy("").ok());
  EXPECT_FALSE(ParseFsyncPolicy("sometimes").ok());
  EXPECT_FALSE(ParseFsyncPolicy("every:").ok());
  EXPECT_FALSE(ParseFsyncPolicy("every:x").ok());
}

// --- Changelog -------------------------------------------------------------

CommandLog SampleCommands() {
  return {MakePref(1, 2, 0.25), MakeJoin(),
          MakeTau(0, 3, 1, 0.5),  MakeResolve(),
          MakeFriend(2, 4),       MakeLambda(0.75),
          MakePref(0, 0, 0.125),  MakeResolve()};
}

TEST(ChangelogTest, RoundTripPreservesEveryCommandBitExactly) {
  const std::string dir = FreshDir("changelog_roundtrip");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  const std::string path = dir + "/" + ChangelogFileName(2);
  const CommandLog commands = SampleCommands();

  FsyncPolicy policy;
  policy.mode = FsyncPolicy::Mode::kNever;
  auto writer = ChangelogWriter::Create(path, /*session_id=*/3, /*epoch=*/2,
                                        /*first_seq=*/17, policy);
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (const SessionCommand& cmd : commands) {
    ASSERT_TRUE(
        (*writer)->Append(cmd, cmd.type == CommandType::kResolve).ok());
  }
  ASSERT_TRUE((*writer)->Close().ok());

  auto contents = ReadChangelogFile(path);
  ASSERT_TRUE(contents.ok()) << contents.status();
  EXPECT_EQ(contents->session_id, 3u);
  EXPECT_EQ(contents->epoch, 2u);
  EXPECT_EQ(contents->first_seq, 17u);
  EXPECT_FALSE(contents->torn_tail);
  ASSERT_EQ(contents->commands.size(), commands.size());
  for (size_t i = 0; i < commands.size(); ++i) {
    EXPECT_EQ(contents->commands[i], commands[i]) << "command " << i;
  }
}

TEST(ChangelogTest, TornTailAtEveryByteOffsetOfTheFinalRecord) {
  const std::string dir = FreshDir("changelog_torn");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  const std::string path = dir + "/" + ChangelogFileName(0);
  const CommandLog commands = SampleCommands();

  FsyncPolicy policy;
  policy.mode = FsyncPolicy::Mode::kNever;
  auto writer =
      ChangelogWriter::Create(path, 0, 0, 0, policy);
  ASSERT_TRUE(writer.ok());
  for (const SessionCommand& cmd : commands) {
    ASSERT_TRUE(
        (*writer)->Append(cmd, cmd.type == CommandType::kResolve).ok());
  }
  ASSERT_TRUE((*writer)->Close().ok());
  const std::string full = ReadFileBytes(path);

  // Offset where the final record begins (len + crc + payload framing).
  const size_t last_record_bytes = 8 + EncodedCommandSize(commands.back());
  ASSERT_GT(full.size(), last_record_bytes);
  const size_t last_start = full.size() - last_record_bytes;

  // Truncating exactly at the record boundary is indistinguishable from a
  // log that simply ends there: a clean read of N-1 commands, no torn tail.
  const std::string cut_path = dir + "/cut";
  WriteFileBytes(cut_path, full.substr(0, last_start));
  auto clean = ReadChangelogFile(cut_path);
  ASSERT_TRUE(clean.ok());
  EXPECT_FALSE(clean->torn_tail);
  EXPECT_EQ(clean->commands.size(), commands.size() - 1);

  // Every cut INSIDE the final record: the valid prefix survives intact
  // and the partial tail is reported, never an error.
  for (size_t cut = last_start + 1; cut < full.size(); ++cut) {
    WriteFileBytes(cut_path, full.substr(0, cut));
    auto torn = ReadChangelogFile(cut_path);
    ASSERT_TRUE(torn.ok()) << "cut at " << cut << ": " << torn.status();
    EXPECT_TRUE(torn->torn_tail) << "cut at " << cut;
    EXPECT_EQ(torn->valid_bytes, last_start) << "cut at " << cut;
    ASSERT_EQ(torn->commands.size(), commands.size() - 1)
        << "cut at " << cut;
    for (size_t i = 0; i + 1 < commands.size(); ++i) {
      EXPECT_EQ(torn->commands[i], commands[i]);
    }
  }

  // A cut inside the 24-byte header (crash between create and header
  // fsync): empty contents, torn tail, still not an error.
  WriteFileBytes(cut_path, full.substr(0, 10));
  auto header_torn = ReadChangelogFile(cut_path);
  ASSERT_TRUE(header_torn.ok());
  EXPECT_TRUE(header_torn->torn_tail);
  EXPECT_TRUE(header_torn->commands.empty());
}

TEST(ChangelogTest, CorruptMidFileRecordDiscardsFromThere) {
  const std::string dir = FreshDir("changelog_corrupt");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  const std::string path = dir + "/" + ChangelogFileName(0);
  const CommandLog commands = SampleCommands();

  FsyncPolicy policy;
  policy.mode = FsyncPolicy::Mode::kNever;
  auto writer = ChangelogWriter::Create(path, 0, 0, 0, policy);
  ASSERT_TRUE(writer.ok());
  for (const SessionCommand& cmd : commands) {
    ASSERT_TRUE((*writer)->Append(cmd, false).ok());
  }
  ASSERT_TRUE((*writer)->Close().ok());

  // Flip a payload byte of the third record: records 0-1 must survive,
  // everything from the corrupt record on is discarded as a torn tail.
  std::string bytes = ReadFileBytes(path);
  size_t offset = 24;
  for (int i = 0; i < 2; ++i) offset += 8 + EncodedCommandSize(commands[i]);
  bytes[offset + 8] = static_cast<char>(bytes[offset + 8] ^ 0x40);
  WriteFileBytes(path, bytes);

  auto contents = ReadChangelogFile(path);
  ASSERT_TRUE(contents.ok()) << contents.status();
  EXPECT_TRUE(contents->torn_tail);
  EXPECT_EQ(contents->valid_bytes, offset);
  ASSERT_EQ(contents->commands.size(), 2u);
  EXPECT_EQ(contents->commands[0], commands[0]);
  EXPECT_EQ(contents->commands[1], commands[1]);
}

// The interval policy fsyncs on the first append once its interval has
// passed since the last fsync (here, since the file was created), and not
// before.
TEST(ChangelogTest, FuzzedChangelogsAreRefusedOrReadAsAPrefix) {
  // Flips 1-4 bits of a captured multi-record changelog, and truncates
  // every fifth input too. The reader must refuse each with
  // InvalidArgument or read a prefix of the written records. Records are
  // CRC-checked and the magic and version are compared, but the header's
  // session_id, epoch and first_seq carry no checksum: a flip there reads
  // as another header over the same records. Recovery checks first_seq
  // against the snapshot's applied_seq; epoch and session_id are never
  // checked against the file's name or directory.
  const std::string dir = FreshDir("changelog_fuzz");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  const std::string path = dir + "/" + ChangelogFileName(2);
  const CommandLog written = BuildStream(8, 10, 40, 29);
  FsyncPolicy policy;
  policy.mode = FsyncPolicy::Mode::kNever;
  auto writer = ChangelogWriter::Create(path, /*session_id=*/3, /*epoch=*/2,
                                        /*first_seq=*/17, policy);
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (const SessionCommand& cmd : written) {
    ASSERT_TRUE(
        (*writer)->Append(cmd, cmd.type == CommandType::kResolve).ok());
  }
  ASSERT_TRUE((*writer)->Close().ok());
  const std::string good = ReadFileBytes(path);

  // The unchecked fields, named: one flipped bit in each is read back.
  for (size_t offset : {8u, 12u, 16u}) {
    std::string bytes = good;
    bytes[offset] = static_cast<char>(bytes[offset] ^ 1);
    WriteFileBytes(path, bytes);
    auto read = ReadChangelogFile(path);
    ASSERT_TRUE(read.ok()) << "offset " << offset << ": " << read.status();
    EXPECT_EQ(read->commands.size(), written.size()) << "offset " << offset;
    EXPECT_NE(std::make_tuple(read->session_id, read->epoch, read->first_seq),
              std::make_tuple(3u, 2u, uint64_t{17}))
        << "offset " << offset;
  }

  Rng rng(20261020);
  int refused = 0, complete = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string bytes = good;
    const int flips = 1 + static_cast<int>(rng.UniformInt(4));
    for (int f = 0; f < flips; ++f) {
      const uint64_t bit = rng.UniformInt(8 * bytes.size());
      bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
    }
    const bool truncated = trial % 5 == 4;
    if (truncated) bytes.resize(rng.UniformInt(bytes.size()));
    WriteFileBytes(path, bytes);
    auto read = ReadChangelogFile(path);
    if (!read.ok()) {
      EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument)
          << "trial " << trial << ": " << read.status();
      ++refused;
      continue;
    }
    ASSERT_LE(read->commands.size(), written.size()) << "trial " << trial;
    for (size_t i = 0; i < read->commands.size(); ++i) {
      ASSERT_EQ(read->commands[i], written[i])
          << "trial " << trial << " record " << i;
    }
    EXPECT_LE(read->valid_bytes, bytes.size()) << "trial " << trial;
    if (read->commands.size() == written.size()) {
      ++complete;
    } else if (!truncated) {
      EXPECT_TRUE(read->torn_tail) << "trial " << trial;
    }
  }
  // 39 inputs are refused (a flipped magic or version); 12 read every
  // record (the flips hit only the unchecked header fields).
  EXPECT_EQ(refused, 39);
  EXPECT_EQ(complete, 12);
}

TEST(ChangelogTest, IntervalPolicySyncsOnceTheIntervalPassed) {
  const std::string dir = FreshDir("changelog_interval");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  MetricsRegistry registry;
  const DurabilityMetrics metrics = DurabilityMetrics::FromRegistry(&registry);
  FsyncPolicy policy;
  policy.mode = FsyncPolicy::Mode::kInterval;

  policy.interval_ms = 1e9;
  auto idle = ChangelogWriter::Create(dir + "/" + ChangelogFileName(0), 0, 0,
                                      0, policy, &metrics);
  ASSERT_TRUE(idle.ok()) << idle.status();
  ASSERT_TRUE((*idle)->Append(MakePref(0, 1, 0.5), false).ok());
  EXPECT_EQ(metrics.fsyncs->value(), 0);

  policy.interval_ms = 20.0;
  auto due = ChangelogWriter::Create(dir + "/" + ChangelogFileName(1), 0, 1,
                                     0, policy, &metrics);
  ASSERT_TRUE(due.ok()) << due.status();
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  ASSERT_TRUE((*due)->Append(MakePref(0, 1, 0.5), false).ok());
  EXPECT_EQ(metrics.fsyncs->value(), 1);
}

TEST(RecoveryReadersTest, ReadErrorsReturnStatusInsteadOfThrowing) {
  // A directory opens as a stream but fails on the first read (EISDIR):
  // both readers must report it as a Status, not throw from the buffer
  // fill.
  const std::string dir = FreshDir("reader_directory");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  auto changelog = ReadChangelogFile(dir);
  EXPECT_FALSE(changelog.ok());
  auto snapshot = ReadSnapshotFile(dir);
  EXPECT_FALSE(snapshot.ok());
  // A missing file still reads as not found.
  auto missing = ReadSnapshotFile(dir + "/absent");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// --- Snapshots -------------------------------------------------------------

TEST(SnapshotTest, StateRoundTripIsBitExact) {
  Session session(RandomInstance(10, 14, 2, 0.5, 3));
  ApplyAll(&session, BuildStream(10, 14, 12, 5));

  const SessionState state = session.CaptureState();
  const uint64_t digest = SessionStateDigest(state);

  std::string encoded;
  EncodeSessionState(state, &encoded);
  auto decoded = DecodeSessionState(encoded.data(), encoded.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(SessionStateDigest(*decoded), digest);

  // FromState reproduces the full serving state, digest-identical.
  auto restored = Session::FromState(std::move(*decoded), SessionOptions{});
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(Digest(*restored), digest);
  EXPECT_EQ(restored->num_resolves(), session.num_resolves());

  // File round trip through the atomic write-rename path.
  const std::string dir = FreshDir("snapshot_roundtrip");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  const std::string path = dir + "/" + SnapshotFileName(4);
  ASSERT_TRUE(WriteSnapshotFile(path, /*session_id=*/7, /*epoch=*/4,
                                /*applied_seq=*/13, state)
                  .ok());
  auto snapshot = ReadSnapshotFile(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  EXPECT_EQ(snapshot->session_id, 7u);
  EXPECT_EQ(snapshot->epoch, 4u);
  EXPECT_EQ(snapshot->applied_seq, 13u);
  EXPECT_EQ(SessionStateDigest(snapshot->state), digest);
}

TEST(SnapshotTest, AnySingleByteCorruptionIsDetected) {
  Session session(RandomInstance(8, 10, 2, 0.5, 9));
  ASSERT_TRUE(session.Resolve().ok());
  const std::string dir = FreshDir("snapshot_corrupt");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  const std::string path = dir + "/" + SnapshotFileName(0);
  ASSERT_TRUE(
      WriteSnapshotFile(path, 0, 0, 1, session.CaptureState()).ok());

  const std::string good = ReadFileBytes(path);
  ASSERT_TRUE(ReadSnapshotFile(path).ok());
  // Flip one byte at a spread of offsets covering the header (both CRCs)
  // and the payload; every corruption must be caught.
  for (size_t offset = 0; offset < good.size();
       offset += 1 + good.size() / 64) {
    std::string bad = good;
    bad[offset] = static_cast<char>(bad[offset] ^ 0x01);
    WriteFileBytes(path, bad);
    EXPECT_FALSE(ReadSnapshotFile(path).ok()) << "offset " << offset;
  }
  // Truncations fail too (the recovery manager falls back, never crashes).
  for (size_t len : {0u, 10u, 39u, 40u}) {
    if (len >= good.size()) continue;
    WriteFileBytes(path, good.substr(0, len));
    EXPECT_FALSE(ReadSnapshotFile(path).ok()) << "len " << len;
  }
}

TEST(SnapshotTest, VersionOneStateIsRefused) {
  // Version 1 states carry the basis and keys of the two-cap compact LP,
  // whose tag-2 column key named y where version 2's names s = x_v - y.
  // Such a payload must be refused whole, with a Status, never decoded.
  Session session(RandomInstance(8, 10, 2, 0.5, 9));
  ASSERT_TRUE(session.Resolve().ok());
  std::string payload;
  EncodeSessionState(session.CaptureState(), &payload);
  ASSERT_TRUE(DecodeSessionState(payload.data(), payload.size()).ok());
  std::string version_one;
  PutU32(1, &version_one);
  payload.replace(0, 4, version_one);

  auto decoded = DecodeSessionState(payload.data(), payload.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(decoded.status().message(), "unsupported session state version 1");

  // The same payload inside a snapshot file with valid CRCs: recovery's
  // reader refuses it the same way.
  std::string file("SVGS", 4);
  PutU32(1, &file);  // snapshot (container) version
  PutU32(0, &file);  // session id
  PutU32(0, &file);  // epoch
  PutU64(1, &file);  // applied seq
  PutU64(payload.size(), &file);
  PutU32(Crc32(payload.data(), payload.size()), &file);
  PutU32(Crc32(file.data(), file.size()), &file);
  file += payload;
  const std::string dir = FreshDir("snapshot_state_v1");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  const std::string path = dir + "/" + SnapshotFileName(0);
  WriteFileBytes(path, file);
  auto snapshot = ReadSnapshotFile(path);
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(snapshot.status().message().find("state version 1"),
            std::string::npos)
      << snapshot.status();
}

/// The encoded instance dimensions: n, m, k, lambda and an edge count of 0,
/// after the state version.
std::string StateHeader(uint32_t n, uint32_t m, uint32_t k) {
  std::string bytes;
  PutU32(2, &bytes);  // the current state version
  PutU32(n, &bytes);
  PutU32(m, &bytes);
  PutU32(k, &bytes);
  PutF64(0.5, &bytes);
  PutU32(0, &bytes);  // edges
  return bytes;
}

TEST(SnapshotTest, OversizedDimensionsAreRejectedBeforeAnyAllocation) {
  // Each payload would size a container past what any machine holds:
  // n = 2^31 overflows int, n = m = 2^20 asks for a 4 TiB preference
  // matrix, and ci = 2^31 sizes the configuration's item index past int.
  // The decoder must answer InvalidArgument, never throw or abort.
  std::string config_items = StateHeader(1, 1, 1);
  PutF32(0.25f, &config_items);     // p(0, 0)
  PutU32(0, &config_items);         // commodity values
  PutU32(0, &config_items);         // slot weights
  PutU32(0, &config_items);         // finalized edges
  PutU32(0, &config_items);         // pairs
  PutU32(1, &config_items);         // config users
  PutU32(1, &config_items);         // config slots
  PutU32(1u << 31, &config_items);  // config items
  PutU32(0, &config_items);         // the one assignment
  const std::string payloads[] = {
      StateHeader(1u << 31, 1, 1),
      StateHeader(1u << 20, 1u << 20, 3),
      config_items,
  };
  for (const std::string& payload : payloads) {
    auto decoded = DecodeSessionState(payload.data(), payload.size());
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
        << decoded.status();
    // Refused for its dimensions, not for its version.
    EXPECT_EQ(decoded.status().message().find("version"), std::string::npos)
        << decoded.status();
  }

  // Every strict prefix of a real state is rejected the same way.
  Session session(RandomInstance(4, 5, 2, 0.5, 11));
  ApplyAll(&session, BuildStream(4, 5, 6, 13));
  std::string encoded;
  EncodeSessionState(session.CaptureState(), &encoded);
  ASSERT_TRUE(DecodeSessionState(encoded.data(), encoded.size()).ok());
  for (size_t len = 0; len < encoded.size(); ++len) {
    auto decoded = DecodeSessionState(encoded.data(), len);
    ASSERT_FALSE(decoded.ok()) << "prefix " << len;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
        << "prefix " << len << ": " << decoded.status();
  }
}

/// Byte offset of the first pair's `u` in the encoded state of `inst`:
/// past the version, the dimensions, the edge list, the preference
/// matrix, the tau lists, the commodity and slot vectors and the
/// finalized-edge and pair counts.
size_t FirstPairOffset(const SvgicInstance& inst) {
  const int num_edges = inst.graph().num_edges();
  size_t offset = 4 + 3 * 4 + 8 + 4 + 8 * static_cast<size_t>(num_edges) +
                  4 * static_cast<size_t>(inst.num_users()) * inst.num_items();
  for (EdgeId e = 0; e < num_edges; ++e) {
    offset += 4 + 8 * inst.TauEntries(e).size();
  }
  offset += 4 + 4 * inst.commodity_values().size();
  offset += 4 + 4 * inst.slot_weights().size();
  return offset + 4 + 4;
}

uint32_t U32At(const std::string& bytes, size_t at) {
  ByteReader reader(bytes.data() + at, 4);
  uint32_t value = 0;
  EXPECT_TRUE(reader.ReadU32(&value));
  return value;
}

std::string WithU32At(std::string bytes, size_t at, uint32_t value) {
  std::string encoded;
  PutU32(value, &encoded);
  bytes.replace(at, 4, encoded);
  return bytes;
}

std::string Encoded(const SessionState& state) {
  std::string bytes;
  EncodeSessionState(state, &bytes);
  return bytes;
}

TEST(SnapshotTest, OutOfRangeIdsAreRejected) {
  // Ids and sizes inside the payload must agree with the dimensions and
  // counts decoded before them; each violation is InvalidArgument, never
  // an out-of-bounds write or a state that crashes a later resolve.
  Session session(RandomInstance(4, 5, 2, 0.5, 11));
  ApplyAll(&session, BuildStream(4, 5, 6, 13));
  const SessionState good = session.CaptureState();
  const SvgicInstance& inst = good.instance;
  const uint32_t n = static_cast<uint32_t>(inst.num_users());
  const uint32_t m = static_cast<uint32_t>(inst.num_items());
  const uint32_t num_edges = static_cast<uint32_t>(inst.graph().num_edges());
  ASSERT_GT(num_edges, 0u);
  ASSERT_FALSE(inst.pairs().empty());
  ASSERT_FALSE(inst.pairs()[0].weights.empty());
  ASSERT_FALSE(good.keys.cols.empty());
  ASSERT_FALSE(good.keys.rows.empty());

  const std::string encoded = Encoded(good);
  ASSERT_TRUE(DecodeSessionState(encoded.data(), encoded.size()).ok());
  const size_t pair = FirstPairOffset(inst);
  const FriendPair& first = inst.pairs()[0];
  ASSERT_EQ(U32At(encoded, pair), static_cast<uint32_t>(first.u));
  ASSERT_EQ(U32At(encoded, pair + 4), static_cast<uint32_t>(first.v));
  ASSERT_EQ(U32At(encoded, pair + 16), first.weights.size());
  ASSERT_EQ(U32At(encoded, pair + 20),
            static_cast<uint32_t>(first.weights[0].item));

  std::vector<std::pair<std::string, std::string>> cases = {
      {"pair u = 2^30", WithU32At(encoded, pair, 1u << 30)},
      {"pair v = n", WithU32At(encoded, pair + 4, n)},
      {"pair uv = num_edges", WithU32At(encoded, pair + 8, num_edges)},
      {"pair vu = num_edges", WithU32At(encoded, pair + 12, num_edges)},
      {"pair weight item = m", WithU32At(encoded, pair + 20, m)},
  };
  SessionState tau_item = good;
  tau_item.instance.SetTauValue(0, 1000000, 0.5);
  cases.emplace_back("tau item = 10^6", Encoded(tau_item));
  SessionState commodity = good;
  commodity.instance.set_commodity_values({1.0f});
  cases.emplace_back("1 commodity value for 5 items", Encoded(commodity));
  SessionState slots = good;
  slots.instance.set_slot_weights(
      std::vector<float>(inst.num_slots() + 1, 1.0f));
  cases.emplace_back("k + 1 slot weights", Encoded(slots));
  SessionState cols = good;
  cols.keys.cols.push_back(42);
  cases.emplace_back("a column key more than basis columns", Encoded(cols));
  SessionState rows = good;
  rows.keys.rows.pop_back();
  cases.emplace_back("a row key fewer than basis rows", Encoded(rows));

  for (const auto& [what, bytes] : cases) {
    auto decoded = DecodeSessionState(bytes.data(), bytes.size());
    ASSERT_FALSE(decoded.ok()) << what;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
        << what << ": " << decoded.status();
  }
}

TEST(SnapshotTest, FuzzedStatesAreRefusedOrResolvable) {
  // Flips 1-4 bits of a captured state's payload, and truncates every
  // fifth input too. The decoder must refuse each with InvalidArgument or
  // hand back a state that a session restores from and resolves: a state
  // that decodes but that no resolve accepts (a negative utility, more
  // slots than items) must be refused at decode instead.
  Session session(RandomInstance(6, 8, 2, 0.5, 21));
  ApplyAll(&session, BuildStream(6, 8, 10, 23));
  const std::string good = Encoded(session.CaptureState());
  Rng rng(20261019);
  int accepted = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string bytes = good;
    const int flips = 1 + static_cast<int>(rng.UniformInt(4));
    for (int f = 0; f < flips; ++f) {
      const uint64_t bit = rng.UniformInt(8 * bytes.size());
      bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
    }
    if (trial % 5 == 4) bytes.resize(rng.UniformInt(bytes.size()));
    auto decoded = DecodeSessionState(bytes.data(), bytes.size());
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
          << "trial " << trial << ": " << decoded.status();
      continue;
    }
    ++accepted;
    auto restored = Session::FromState(std::move(*decoded), SessionOptions{});
    ASSERT_NE(restored, nullptr);
    auto report = restored->Resolve();
    EXPECT_TRUE(report.ok()) << "trial " << trial << ": " << report.status();
  }
  // 656 of the 2000 inputs decode.
  EXPECT_GT(accepted, 400);
}

// --- Crash recovery --------------------------------------------------------

TEST(RecoveryTest, KillAndRestoreEqualsUninterruptedExecution) {
  const std::string dir = FreshDir("recovery_bitexact");
  const SvgicInstance base = RandomInstance(12, 16, 3, 0.5, 21);
  const CommandLog log = BuildStream(12, 16, 40, 77);

  DurabilityOptions options;
  options.data_dir = dir;
  options.fsync.mode = FsyncPolicy::Mode::kEveryN;
  options.fsync.every_n = 1;
  options.snapshot_interval_seconds = 0;  // count trigger only
  options.snapshot_every_commands = 6;    // force many rotations
  options.keep_epochs = 2;
  SessionStore store(options);

  // The uninterrupted control and the journaled session apply the same
  // stream; the journaled one snapshots + rotates as it goes.
  Session control(base);
  auto durable = std::make_unique<Session>(base);
  auto journal = store.Attach(0, *durable);
  ASSERT_TRUE(journal.ok()) << journal.status();
  durable->set_journal(*journal);
  ApplyAll(&control, log);
  ApplyAll(durable.get(), log, *journal);
  EXPECT_EQ(Digest(*durable), Digest(control));
  EXPECT_EQ((*journal)->seq(), log.size());
  EXPECT_GT((*journal)->epoch(), 1u);  // rotations actually happened

  // "kill -9": drop the session without any flush and recover from disk.
  durable.reset();
  RecoveryManager manager(dir, SessionOptions{});
  auto recovered = manager.RecoverSession(0);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->applied_seq, log.size());
  EXPECT_FALSE(recovered->torn_tail);
  EXPECT_EQ(recovered->snapshot_fallbacks, 0);
  // The snapshot fast-path replayed only the post-snapshot tail.
  EXPECT_LT(recovered->replayed_commands, log.size());
  ASSERT_NE(recovered->session, nullptr);
  EXPECT_EQ(Digest(*recovered->session), Digest(control));

  // Bit-for-bit continuation: the same mutation + resolve on the control
  // and the recovered session must warm-start identically — same path,
  // same pivot count, same rounded configuration totals, same digest.
  auto drive = [](Session* session) {
    EXPECT_TRUE(session->Apply(MakePref(2, 3, 0.9)).ok());
    auto outcome = session->Apply(MakeResolve());
    EXPECT_TRUE(outcome.ok()) << outcome.status();
    return outcome.ok() ? outcome->report : ResolveReport{};
  };
  const ResolveReport control_report = drive(&control);
  const ResolveReport recovered_report = drive(recovered->session.get());
  EXPECT_EQ(recovered_report.path, control_report.path);
  EXPECT_NE(recovered_report.path, ResolvePath::kCold)
      << "recovery must never pay a cold solve";
  EXPECT_TRUE(recovered_report.warm_started);
  EXPECT_EQ(recovered_report.pivots, control_report.pivots);
  EXPECT_EQ(recovered_report.scaled_total, control_report.scaled_total);
  EXPECT_EQ(recovered_report.lp_objective, control_report.lp_objective);
  EXPECT_EQ(Digest(*recovered->session), Digest(control));

  // Cold replay (oldest retained snapshot, maximal replay) reaches the
  // exact same state the warm fast-path did.
  RecoveryOptions cold_options;
  cold_options.cold_replay = true;
  RecoveryManager cold_manager(dir, SessionOptions{}, cold_options);
  auto cold = cold_manager.RecoverSession(0);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_GT(cold->replayed_commands, recovered->replayed_commands);
  // Compare pre-continuation states: re-recover the warm path fresh.
  auto warm_again = manager.RecoverSession(0);
  ASSERT_TRUE(warm_again.ok());
  EXPECT_EQ(Digest(*cold->session), Digest(*warm_again->session));
}

TEST(RecoveryTest, TornTailDropsOnlyTheTruncatedCommand) {
  const std::string dir = FreshDir("recovery_torn");
  const SvgicInstance base = RandomInstance(10, 14, 2, 0.5, 23);
  CommandLog log = BuildStream(10, 14, 15, 31);
  log.push_back(MakePref(4, 5, 0.5));  // the command the crash will tear

  DurabilityOptions options;
  options.data_dir = dir;
  options.fsync.mode = FsyncPolicy::Mode::kEveryN;
  options.fsync.every_n = 1;
  options.snapshot_interval_seconds = 0;
  options.snapshot_every_commands = 0;  // single epoch, no rotation
  SessionStore store(options);

  auto durable = std::make_unique<Session>(base);
  auto journal = store.Attach(0, *durable);
  ASSERT_TRUE(journal.ok());
  durable->set_journal(*journal);
  ApplyAll(durable.get(), log, *journal);
  const std::string changelog_path =
      store.SessionDir(0) + "/" + ChangelogFileName(0);
  durable.reset();

  // Tear the final record mid-payload, as a crash mid-append would.
  std::string bytes = ReadFileBytes(changelog_path);
  WriteFileBytes(changelog_path, bytes.substr(0, bytes.size() - 3));

  RecoveryManager manager(dir, SessionOptions{});
  auto recovered = manager.RecoverSession(0);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(recovered->torn_tail);
  EXPECT_EQ(recovered->applied_seq, log.size() - 1);

  // The recovered state equals a control that never saw the torn command.
  Session control(base);
  CommandLog prefix(log.begin(), log.end() - 1);
  ApplyAll(&control, prefix);
  EXPECT_EQ(Digest(*recovered->session), Digest(control));
}

TEST(RecoveryTest, CorruptNewestSnapshotFallsBackToPreviousEpoch) {
  const std::string dir = FreshDir("recovery_fallback");
  const SvgicInstance base = RandomInstance(10, 14, 2, 0.5, 25);
  const CommandLog log = BuildStream(10, 14, 30, 41);

  DurabilityOptions options;
  options.data_dir = dir;
  options.fsync.mode = FsyncPolicy::Mode::kNever;
  options.snapshot_interval_seconds = 0;
  options.snapshot_every_commands = 5;
  options.keep_epochs = 2;
  SessionStore store(options);

  Session control(base);
  auto durable = std::make_unique<Session>(base);
  auto journal = store.Attach(0, *durable);
  ASSERT_TRUE(journal.ok());
  durable->set_journal(*journal);
  ApplyAll(&control, log);
  ApplyAll(durable.get(), log, *journal);
  const uint32_t newest_epoch = (*journal)->epoch();
  ASSERT_GT(newest_epoch, 1u);
  durable.reset();

  RecoveryManager manager(dir, SessionOptions{});
  auto baseline = manager.RecoverSession(0);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(baseline->snapshot_fallbacks, 0);

  // Corrupt the newest snapshot: recovery must fall back one epoch and
  // pay a longer replay, landing on the identical state.
  const std::string newest_path =
      store.SessionDir(0) + "/" + SnapshotFileName(newest_epoch);
  std::string bytes = ReadFileBytes(newest_path);
  bytes[bytes.size() / 2] =
      static_cast<char>(bytes[bytes.size() / 2] ^ 0x20);
  WriteFileBytes(newest_path, bytes);

  auto recovered = manager.RecoverSession(0);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->snapshot_fallbacks, 1);
  EXPECT_LT(recovered->snapshot_epoch, newest_epoch);
  EXPECT_GT(recovered->replayed_commands, baseline->replayed_commands);
  EXPECT_EQ(recovered->applied_seq, log.size());
  EXPECT_EQ(Digest(*recovered->session), Digest(control));

  // With every retained snapshot corrupt, recovery must fail cleanly.
  const std::string previous_path =
      store.SessionDir(0) + "/" + SnapshotFileName(recovered->snapshot_epoch);
  std::string previous = ReadFileBytes(previous_path);
  previous[previous.size() / 2] =
      static_cast<char>(previous[previous.size() / 2] ^ 0x20);
  WriteFileBytes(previous_path, previous);
  EXPECT_FALSE(manager.RecoverSession(0).ok());
}

TEST(RecoveryTest, UnreadableNewestSnapshotFallsBackToPreviousEpoch) {
  const std::string dir = FreshDir("recovery_unreadable");
  const SvgicInstance base = RandomInstance(10, 14, 2, 0.5, 27);
  const CommandLog log = BuildStream(10, 14, 20, 43);

  DurabilityOptions options;
  options.data_dir = dir;
  options.fsync.mode = FsyncPolicy::Mode::kNever;
  options.snapshot_interval_seconds = 0;
  options.snapshot_every_commands = 5;
  options.keep_epochs = 2;
  SessionStore store(options);

  Session control(base);
  auto durable = std::make_unique<Session>(base);
  auto journal = store.Attach(0, *durable);
  ASSERT_TRUE(journal.ok());
  durable->set_journal(*journal);
  ApplyAll(&control, log);
  ApplyAll(durable.get(), log, *journal);
  const uint32_t newest_epoch = (*journal)->epoch();
  ASSERT_GT(newest_epoch, 1u);
  durable.reset();

  // The newest snapshot's name now holds a directory: opening it works,
  // reading it fails. Recovery must treat it like a corrupt snapshot.
  const std::string newest_path =
      store.SessionDir(0) + "/" + SnapshotFileName(newest_epoch);
  ASSERT_EQ(::unlink(newest_path.c_str()), 0);
  ASSERT_TRUE(EnsureDirectory(newest_path).ok());

  RecoveryManager manager(dir, SessionOptions{});
  auto recovered = manager.RecoverSession(0);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->snapshot_fallbacks, 1);
  EXPECT_EQ(recovered->snapshot_epoch, newest_epoch - 1);
  EXPECT_EQ(recovered->applied_seq, log.size());
  EXPECT_EQ(Digest(*recovered->session), Digest(control));
}

TEST(RecoveryTest, ColdReplayRefusesAMissingChangelogThatHeldCommands) {
  const std::string dir = FreshDir("recovery_true_gap");
  const SvgicInstance base = RandomInstance(10, 14, 2, 0.5, 37);

  DurabilityOptions options;
  options.data_dir = dir;
  options.fsync.mode = FsyncPolicy::Mode::kNever;
  options.snapshot_interval_seconds = 0;
  options.snapshot_every_commands = 0;  // snapshots only when forced
  options.keep_epochs = 3;
  SessionStore store(options);

  Session session(base);
  auto journal = store.Attach(0, session);
  ASSERT_TRUE(journal.ok()) << journal.status();
  session.set_journal(*journal);
  for (int epoch = 0; epoch < 3; ++epoch) {
    ASSERT_TRUE(session.Apply(MakePref(epoch, 1, 0.3 + 0.1 * epoch)).ok());
    ASSERT_TRUE(session.Apply(MakeResolve()).ok());
    if (epoch < 2) {
      ASSERT_TRUE((*journal)->TakeSnapshot(session).ok());
    }
  }
  ASSERT_EQ((*journal)->epoch(), 2u);

  // Epoch 1's changelog held two commands; without it the cold replay
  // from epoch 0 cannot reach the live state.
  const std::string middle =
      store.SessionDir(0) + "/" + ChangelogFileName(1);
  ASSERT_EQ(::unlink(middle.c_str()), 0);

  RecoveryOptions cold;
  cold.cold_replay = true;
  RecoveryManager cold_manager(dir, SessionOptions{}, cold);
  auto refused = cold_manager.RecoverSession(0);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().message().find("missing changelog epoch 1"),
            std::string::npos)
      << refused.status();

  // The warm path starts past the gap and still recovers.
  RecoveryManager warm_manager(dir, SessionOptions{});
  auto warm = warm_manager.RecoverSession(0);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ(Digest(*warm->session), Digest(session));
}

TEST(RecoveryTest, RecoversWhenOldestRetainedEpochIsHigh) {
  const std::string dir = FreshDir("recovery_high_epoch");
  const SvgicInstance base = RandomInstance(10, 14, 2, 0.5, 29);
  const CommandLog log = BuildStream(10, 14, 25, 83);

  DurabilityOptions options;
  options.data_dir = dir;
  options.fsync.mode = FsyncPolicy::Mode::kNever;
  options.snapshot_interval_seconds = 0;
  options.snapshot_every_commands = 6;
  options.keep_epochs = 2;
  SessionStore store(options);

  // A long-lived session: pruning deleted every epoch below 4096, so the
  // oldest file on disk has a high epoch number (regression: the old
  // recovery scan probed epoch numbers from 0 and gave up after 1024
  // consecutive misses, reporting "no snapshots" for exactly this layout).
  Session control(base);
  auto durable = std::make_unique<Session>(base);
  auto journal =
      store.Attach(0, *durable, /*epoch=*/4096, /*applied_seq=*/0);
  ASSERT_TRUE(journal.ok()) << journal.status();
  durable->set_journal(*journal);
  ApplyAll(&control, log);
  ApplyAll(durable.get(), log, *journal);
  EXPECT_GT((*journal)->epoch(), 4096u);
  durable.reset();

  RecoveryManager manager(dir, SessionOptions{});
  auto recovered = manager.RecoverSession(0);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_GE(recovered->snapshot_epoch, 4096u);
  EXPECT_EQ(recovered->last_epoch, (*journal)->epoch());
  EXPECT_EQ(recovered->applied_seq, log.size());
  EXPECT_EQ(Digest(*recovered->session), Digest(control));
}

// --- Journal fail-stop -----------------------------------------------------

TEST(SessionStoreTest, FreshAttachRefusesExistingDurableState) {
  const std::string dir = FreshDir("attach_guard");
  const SvgicInstance base = RandomInstance(8, 12, 2, 0.5, 71);

  DurabilityOptions options;
  options.data_dir = dir;
  options.fsync.mode = FsyncPolicy::Mode::kNever;
  {
    SessionStore store(options);
    Session session(base);
    auto journal = store.Attach(0, session);
    ASSERT_TRUE(journal.ok()) << journal.status();
    session.set_journal(*journal);
    ASSERT_TRUE(session.Apply(MakePref(0, 1, 0.5)).ok());
  }

  // A second run that skips recovery must not truncate the previous run's
  // snapshot/changelog pair.
  SessionStore store(options);
  Session fresh(base);
  auto refused = store.Attach(0, fresh);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);

  // Recovery-style re-attach (epoch > 0) and the explicit overwrite flag
  // both stay allowed.
  auto readopt = store.Attach(0, fresh, /*epoch=*/1, /*applied_seq=*/1);
  EXPECT_TRUE(readopt.ok()) << readopt.status();
  DurabilityOptions overwrite = options;
  overwrite.overwrite_existing_on_attach = true;
  SessionStore overwriting_store(overwrite);
  auto allowed = overwriting_store.Attach(0, fresh);
  EXPECT_TRUE(allowed.ok()) << allowed.status();
}

TEST(SessionStoreTest, FailedRotationFailStopsSessionUntilRetrySucceeds) {
  const std::string dir = FreshDir("rotation_failstop");
  const SvgicInstance base = RandomInstance(10, 14, 2, 0.5, 31);

  DurabilityOptions options;
  options.data_dir = dir;
  options.fsync.mode = FsyncPolicy::Mode::kNever;
  options.snapshot_interval_seconds = 0;
  options.snapshot_every_commands = 0;  // snapshots only when forced
  SessionStore store(options);

  Session session(base);
  auto journal = store.Attach(0, session);
  ASSERT_TRUE(journal.ok()) << journal.status();
  session.set_journal(*journal);
  ASSERT_TRUE(session.Apply(MakePref(0, 1, 0.5)).ok());
  ASSERT_TRUE(session.Apply(MakeResolve()).ok());

  // Injected rotation failure: a directory squats on the next epoch's
  // changelog path, so ChangelogWriter::Create cannot open it.
  const std::string blocker =
      store.SessionDir(0) + "/" + ChangelogFileName(1);
  ASSERT_TRUE(EnsureDirectory(blocker).ok());
  const Status failed = (*journal)->TakeSnapshot(session);
  ASSERT_FALSE(failed.ok());
  EXPECT_FALSE((*journal)->healthy());
  EXPECT_TRUE((*journal)->ShouldSnapshot());  // demands the re-anchor retry

  // The fail-stopped session refuses commands before mutating anything.
  const uint64_t digest = Digest(session);
  auto refused = session.Apply(MakePref(1, 2, 0.7));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(Digest(session), digest);

  // Clearing the fault, the retry (MaybeSnapshot's next run in the server)
  // re-anchors a clean epoch: health returns and commands flow again.
  ::rmdir(blocker.c_str());
  ASSERT_TRUE((*journal)->TakeSnapshot(session).ok());
  EXPECT_TRUE((*journal)->healthy());
  ASSERT_TRUE(session.Apply(MakePref(1, 2, 0.7)).ok());

  // Recovery sees a consistent store, on the warm path and on the cold
  // replay from the oldest retained epoch alike.
  RecoveryManager manager(dir, SessionOptions{});
  auto recovered = manager.RecoverSession(0);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(Digest(*recovered->session), Digest(session));
  RecoveryOptions cold;
  cold.cold_replay = true;
  RecoveryManager cold_manager(dir, SessionOptions{}, cold);
  auto replayed = cold_manager.RecoverSession(0);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(replayed->snapshot_epoch, 0u);
  EXPECT_EQ(Digest(*replayed->session), Digest(*recovered->session));
}

// The snapshot timer fires once snapshot_interval_seconds has passed since
// the journal attached and a command was applied, and not before.
TEST(SessionStoreTest, SnapshotTimerFiresOnceTheIntervalPassed) {
  const SvgicInstance base = RandomInstance(8, 12, 2, 0.5, 37);
  for (const double interval : {1e9, 0.02}) {
    const std::string dir = FreshDir("snapshot_timer");
    DurabilityOptions options;
    options.data_dir = dir;
    options.fsync.mode = FsyncPolicy::Mode::kNever;
    options.snapshot_interval_seconds = interval;
    options.snapshot_every_commands = 0;
    SessionStore store(options);
    Session session(base);
    auto journal = store.Attach(0, session);
    ASSERT_TRUE(journal.ok()) << journal.status();
    session.set_journal(*journal);
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    EXPECT_FALSE((*journal)->ShouldSnapshot());  // no command yet
    ASSERT_TRUE(session.Apply(MakePref(0, 1, 0.5)).ok());
    EXPECT_EQ((*journal)->ShouldSnapshot(), interval < 1.0) << interval;
  }
}

TEST(SessionStoreTest, ChangelogLagGaugeIsTheMaximumAcrossSessions) {
  const std::string dir = FreshDir("lag_gauge");
  const SvgicInstance base = RandomInstance(8, 12, 2, 0.5, 73);

  DurabilityOptions options;
  options.data_dir = dir;
  options.fsync.mode = FsyncPolicy::Mode::kNever;
  options.snapshot_interval_seconds = 0;
  options.snapshot_every_commands = 0;  // snapshots only when forced
  MetricsRegistry metrics;
  SessionStore store(options, &metrics);
  const Gauge* lag = metrics.GetGauge("durability.changelog_lag");

  Session lagging(base);
  Session busy(base);
  auto lagging_journal = store.Attach(0, lagging);
  auto busy_journal = store.Attach(1, busy);
  ASSERT_TRUE(lagging_journal.ok()) << lagging_journal.status();
  ASSERT_TRUE(busy_journal.ok()) << busy_journal.status();
  lagging.set_journal(*lagging_journal);
  busy.set_journal(*busy_journal);

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(lagging.Apply(MakePref(i, 1, 0.5)).ok());
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(busy.Apply(MakePref(i, 2, 0.5)).ok());
  }
  EXPECT_EQ(lag->value(), 5);

  // The other session's snapshot must not hide the lagging session's
  // un-snapshotted commands.
  ASSERT_TRUE((*busy_journal)->TakeSnapshot(busy).ok());
  EXPECT_EQ(lag->value(), 5);
  ASSERT_TRUE(busy.Apply(MakePref(0, 3, 0.5)).ok());
  EXPECT_EQ(lag->value(), 5);

  // Once the worst session snapshots, the gauge falls to the next worst.
  ASSERT_TRUE((*lagging_journal)->TakeSnapshot(lagging).ok());
  EXPECT_EQ(lag->value(), 1);
  ASSERT_TRUE((*busy_journal)->TakeSnapshot(busy).ok());
  EXPECT_EQ(lag->value(), 0);
}

/// Total size of the regular files in `dir` (every epoch file, when the
/// retention keeps them all: the bytes the store wrote).
int64_t DirectoryBytes(const std::string& dir) {
  int64_t bytes = 0;
  DIR* handle = ::opendir(dir.c_str());
  EXPECT_NE(handle, nullptr) << dir;
  if (handle == nullptr) return -1;
  while (dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    bytes += static_cast<int64_t>(ReadFileBytes(dir + "/" + name).size());
  }
  ::closedir(handle);
  return bytes;
}

TEST(SessionStoreTest, DurabilityWorkIsPinnedPerFsyncPolicy) {
  // One fixed stream through SessionManager + SessionStore, snapshots by
  // count only, every epoch retained, then the shutdown flush. Under each
  // policy the changelog fsyncs (durability.fsyncs counts changelog data
  // fsyncs only: header, snapshot and directory fsyncs are not counted),
  // the snapshots and the bytes on disk are exact. A rotation closes the
  // old changelog, and Close() fsyncs what is unsynced, so even `never`
  // fsyncs once per rotation that had records to sync.
  const SvgicInstance base = RandomInstance(12, 16, 3, 0.5, 21);
  const CommandLog log = BuildStream(12, 16, 40, 77);
  struct Pin {
    const char* policy;
    int64_t fsyncs;
    int64_t snapshots;
    int64_t bytes;
  };
  const Pin pins[] = {
      {"never", 5, 5, 109637},
      {"resolve", 14, 5, 109637},
      {"command", 50, 5, 109637},
      {"every:3", 20, 5, 109637},
  };
  for (size_t i = 0; i < std::size(pins); ++i) {
    const Pin& pin = pins[i];
    const std::string dir = FreshDir("work_pin_" + std::to_string(i));
    MetricsRegistry registry;
    DurabilityOptions options;
    options.data_dir = dir;
    auto policy = ParseFsyncPolicy(pin.policy);
    ASSERT_TRUE(policy.ok()) << pin.policy;
    options.fsync = *policy;
    options.snapshot_interval_seconds = 0;  // count trigger only
    options.snapshot_every_commands = 10;
    options.keep_epochs = 1000;  // nothing pruned: the disk holds every byte
    SessionStore store(options, &registry);
    SessionManagerOptions manager_options;
    manager_options.num_workers = 1;
    manager_options.store = &store;
    SessionManager manager(manager_options);
    const int id = manager.CreateSession(base);
    for (const SessionCommand& command : log) {
      ASSERT_TRUE(manager.Submit(id, command).ok());
    }
    manager.Drain();
    ASSERT_TRUE(manager.FirstError().ok()) << manager.FirstError();
    ASSERT_TRUE(manager.FlushDurability().ok());
    EXPECT_EQ(registry.GetCounter("durability.appends")->value(),
              static_cast<int64_t>(log.size()))
        << pin.policy;
    EXPECT_EQ(registry.GetCounter("durability.fsyncs")->value(), pin.fsyncs)
        << pin.policy;
    EXPECT_EQ(registry.GetCounter("durability.snapshots")->value(),
              pin.snapshots)
        << pin.policy;
    EXPECT_EQ(DirectoryBytes(store.SessionDir(static_cast<uint32_t>(id))),
              pin.bytes)
        << pin.policy;
  }
}

TEST(ServeDurabilityTest, FailStoppedJournalIsUnhealthyUntilReanchored) {
  const std::string dir = FreshDir("serve_failstop_health");
  ServerOptions options;
  options.metrics_interval_seconds = 0;  // windows captured by hand
  options.durability.data_dir = dir;
  options.durability.fsync.mode = FsyncPolicy::Mode::kNever;
  options.durability.snapshot_every_commands = 2;
  options.durability.snapshot_interval_seconds = 0;
  ServeServer server(options);
  const int session = server.CreateSession(RandomInstance(8, 12, 2, 0.5, 43));
  ASSERT_TRUE(server.Start().ok());
  const Gauge* failed = server.metrics().GetGauge("durability.journal_failed");

  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.Apply(session, MakePref(0, 1, 0.5)).ok());
  // Injected rotation failure: a directory squats on the next epoch's
  // changelog path, so the snapshot the second command triggers
  // fail-stops the journal.
  const std::string blocker = dir + "/session-" + std::to_string(session) +
                              "/" + ChangelogFileName(1);
  ASSERT_TRUE(EnsureDirectory(blocker).ok());
  ASSERT_TRUE(client.Apply(session, MakePref(1, 2, 0.5)).ok());
  server.manager().Drain();
  EXPECT_EQ(failed->value(), 1);
  server.CaptureMetricsWindow(1.0);
  auto unhealthy = HttpGet("127.0.0.1", server.port(), "/health");
  ASSERT_FALSE(unhealthy.ok());
  EXPECT_NE(unhealthy.status().message().find("503"), std::string::npos)
      << unhealthy.status();
  const HealthVerdict verdict = server.health().verdict();
  EXPECT_EQ(verdict.level, HealthLevel::kUnhealthy);
  EXPECT_EQ(verdict.reasons, std::vector<std::string>{"journal_failed"});

  // The next command is refused, and the snapshot retry after it
  // re-anchors a clean epoch.
  ::rmdir(blocker.c_str());
  auto refused = client.Apply(session, MakePref(2, 3, 0.5));
  ASSERT_TRUE(refused.ok()) << refused.status();
  EXPECT_EQ(refused->kind, FrameKind::kError);
  server.manager().Drain();
  EXPECT_EQ(failed->value(), 0);
  server.CaptureMetricsWindow(1.0);
  server.CaptureMetricsWindow(1.0);
  auto recovered = HttpGet("127.0.0.1", server.port(), "/health");
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_NE(recovered->find("\"status\": \"ok\""), std::string::npos)
      << *recovered;
  auto accepted = client.Apply(session, MakePref(2, 3, 0.5));
  ASSERT_TRUE(accepted.ok()) << accepted.status();
  EXPECT_EQ(accepted->kind, FrameKind::kOk);
  server.Shutdown();
}

/// CommandJournal with an injectable append failure (what a full disk does
/// to SessionJournal::Append).
class InjectedFailureJournal : public CommandJournal {
 public:
  Status Append(const SessionCommand&, bool) override {
    if (fail_next) {
      is_healthy = false;
      return Status::Unknown("injected append failure");
    }
    return Status::OK();
  }
  bool healthy() const override { return is_healthy; }

  bool fail_next = false;
  bool is_healthy = true;
};

TEST(SessionFailStopTest, UnhealthyJournalRefusesCommandsBeforeMutation) {
  const SvgicInstance base = RandomInstance(8, 12, 2, 0.5, 37);
  Session session(base);
  InjectedFailureJournal journal;
  session.set_journal(&journal);
  ASSERT_TRUE(session.Apply(MakePref(0, 1, 0.5)).ok());

  // The append failure surfaces as the command's status; the mutation it
  // described is applied but un-journaled.
  journal.fail_next = true;
  auto failed = session.Apply(MakePref(1, 2, 0.6));
  ASSERT_FALSE(failed.ok());

  // Every later command is refused BEFORE mutating — even though the
  // writer would now accept appends — so the replay gap stays one record
  // wide until a snapshot re-anchors.
  const uint64_t digest = Digest(session);
  journal.fail_next = false;
  auto refused = session.Apply(MakePref(2, 3, 0.7));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(Digest(session), digest);

  // A snapshot re-anchor (simulated) restores service.
  journal.is_healthy = true;
  EXPECT_TRUE(session.Apply(MakePref(2, 3, 0.7)).ok());
}

// --- Resolve-failure transparency (regression) -----------------------------

TEST(RecoveryTest, FailedResolveLeavesServedStateAndJournalUntouched) {
  const std::string dir = FreshDir("resolve_failure");
  const SvgicInstance base = RandomInstance(10, 14, 2, 0.5, 27);

  DurabilityOptions options;
  options.data_dir = dir;
  options.fsync.mode = FsyncPolicy::Mode::kNever;
  options.snapshot_interval_seconds = 0;
  options.snapshot_every_commands = 0;
  SessionStore store(options);

  Session control(base);
  Session session(base);
  auto journal = store.Attach(0, session);
  ASSERT_TRUE(journal.ok());
  session.set_journal(*journal);

  for (Session* s : {&control, &session}) {
    ASSERT_TRUE(s->Apply(MakeResolve()).ok());
    ASSERT_TRUE(s->Apply(MakePref(1, 2, 0.8)).ok());
    ASSERT_TRUE(s->Apply(MakeTau(0, 3, 1, 0.6)).ok());
    // The lambda change moves the optimum several pivots away, so the
    // failure below strikes after the session's engine has pivoted.
    ASSERT_TRUE(s->Apply(MakeLambda(0.3)).ok());
  }
  const uint64_t digest_before = Digest(session);
  const uint64_t seq_before = (*journal)->seq();

  // Injected LP failure: with no simplex iteration, or with one, the
  // re-solve cannot finish. The served configuration, basis, RNG, dirty
  // flags and the journal must all come through untouched.
  for (int limit : {0, 1}) {
    session.set_max_lp_iterations(limit);
    auto failed = session.Apply(MakeResolve());
    ASSERT_FALSE(failed.ok()) << "limit " << limit;
    EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(Digest(session), digest_before);
    EXPECT_EQ((*journal)->seq(), seq_before);  // failures are never journaled
  }

  // Lifting the limit, the session resumes exactly where the control is:
  // same resolve outcome, same state.
  session.set_max_lp_iterations(SimplexOptions{}.max_iterations);
  auto after = session.Apply(MakeResolve());
  auto control_after = control.Apply(MakeResolve());
  ASSERT_TRUE(after.ok()) << after.status();
  ASSERT_TRUE(control_after.ok());
  // The same re-solve needs at least two pivots, so the one-iteration
  // failure above gave up after pivoting once, away from the served basis.
  EXPECT_GE(control_after->report.pivots, 2);
  EXPECT_EQ(after->report.pivots, control_after->report.pivots);
  EXPECT_EQ(after->report.scaled_total, control_after->report.scaled_total);
  EXPECT_EQ(Digest(session), Digest(control));
}

// --- Client retry ----------------------------------------------------------

TEST(ClientRetryTest, ReconnectsAcrossServerRestart) {
  const SvgicInstance base = RandomInstance(8, 12, 2, 0.5, 61);
  ServerOptions options;
  options.num_workers = 1;
  std::optional<ServeServer> server;
  server.emplace(options);
  const int session = server->CreateSession(base);
  ASSERT_TRUE(server->Start().ok());
  const int port = server->port();

  ClientRetryOptions retry;
  retry.max_retries = 8;
  retry.initial_backoff_ms = 1.0;
  retry.max_backoff_ms = 20.0;
  MetricsRegistry metrics;
  ServeClient client(retry, &metrics);
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  auto first = client.Apply(session, MakePref(0, 1, 0.7));
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->kind, FrameKind::kOk);
  EXPECT_EQ(client.retries(), 0u);

  // Restart the server on the same port; the old connection is dead, so
  // the next Apply must reconnect under the hood and still succeed.
  server->Shutdown();
  server.reset();
  ServerOptions restart_options = options;
  restart_options.port = port;
  server.emplace(restart_options);
  const int session2 = server->CreateSession(base);
  ASSERT_TRUE(server->Start().ok());
  ASSERT_EQ(server->port(), port);

  auto second = client.Apply(session2, MakePref(1, 2, 0.6));
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->kind, FrameKind::kOk);
  EXPECT_GE(client.retries(), 1u);
  EXPECT_GE(metrics.GetCounter("serve.client.retries")->value(), 1);
  server->Shutdown();
}

TEST(ClientRetryTest, ExhaustsItsBudgetWhenTheServerStaysDown) {
  ServerOptions options;
  options.num_workers = 1;
  auto server = std::make_unique<ServeServer>(options);
  const int session = server->CreateSession(RandomInstance(8, 12, 2, 0.5, 63));
  ASSERT_TRUE(server->Start().ok());

  ClientRetryOptions retry;
  retry.max_retries = 2;
  retry.initial_backoff_ms = 1.0;
  ServeClient client(retry);
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  ASSERT_TRUE(client.Apply(session, MakePref(0, 0, 0.5)).ok());

  server->Shutdown();
  server.reset();  // nothing listens on the port anymore

  auto failed = client.Apply(session, MakePref(0, 1, 0.5));
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(client.retries(), 2u);  // exactly the configured budget
}

// --- End-to-end server restart ---------------------------------------------

TEST(ServeDurabilityTest, GracefulRestartRecoversEverySession) {
  const std::string dir = FreshDir("serve_restart");
  const SvgicInstance base = RandomInstance(10, 16, 3, 0.5, 65);

  ServerOptions options;
  options.num_workers = 2;
  options.durability.data_dir = dir;
  options.durability.snapshot_every_commands = 4;
  options.durability.snapshot_interval_seconds = 0;

  uint64_t digest_before = 0;
  int port = 0;
  {
    ServeServer server(options);
    const int a = server.CreateSession(base);
    server.CreateSession(RandomInstance(8, 12, 2, 0.5, 66));
    ASSERT_TRUE(server.Start().ok());
    port = server.port();
    ServeClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(
            client.Apply(a, MakePref((round + i) % 10, i % 16, 0.6)).ok());
      }
      ASSERT_TRUE(client.Apply(a, MakeResolve()).ok());
    }
    server.manager().Drain();
    digest_before = Digest(server.manager().session(a));
    server.Shutdown();  // graceful: flushes + final snapshot per session
  }

  ServeServer restarted(options);
  ASSERT_TRUE(RecoveryManager::HasSessions(dir));
  auto recovered = restarted.RecoverSessions();
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(*recovered, 2);
  EXPECT_EQ(Digest(restarted.manager().session(0)), digest_before);
  EXPECT_GT(restarted.metrics().GetCounter("durability.recoveries")->value(),
            0);

  // The recovered server keeps serving: the next resolve over the wire
  // warm-starts from the snapshotted basis.
  ASSERT_TRUE(restarted.Start().ok());
  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", restarted.port()).ok());
  auto resolve = client.Apply(0, MakeResolve());
  ASSERT_TRUE(resolve.ok()) << resolve.status();
  EXPECT_EQ(resolve->kind, FrameKind::kOk);
  restarted.Shutdown();
}

}  // namespace
}  // namespace savg
