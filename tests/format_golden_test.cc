// Golden byte pins for the four binary formats: the SVGB command codec and
// command log, the SVGF wire frame with its apply-result payload, the SVGL
// changelog, and the SVGS snapshot (state digest + file header).
//
// Round-trip tests cannot see a change made to an encoder and its decoder
// alike; these constants can. Every expected value was measured once and
// must never move: a changed byte here breaks every log, changelog and
// snapshot already on disk and every client already deployed.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>

#include "datagen/datasets.h"
#include "durability/changelog.h"
#include "durability/session_store.h"
#include "durability/snapshot.h"
#include "online/session.h"
#include "serve/session_command.h"
#include "serve/wire.h"

namespace savg {
namespace {

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (char c : bytes) {
    const unsigned char b = static_cast<unsigned char>(c);
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xF]);
  }
  return hex;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

double DoubleWithBits(uint64_t bits) {
  double d = 0.0;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

std::string Encoded(const SessionCommand& command) {
  std::string bytes;
  EncodeCommand(command, &bytes);
  return bytes;
}

TEST(FormatGoldenTest, EncodeCommandBytesOfEveryType) {
  struct Case {
    SessionCommand command;
    const char* hex;
  };
  const Case cases[] = {
      // -0.0 keeps its sign bit.
      {MakePref(3, 7, -0.0), "0103000000070000000000000000000080"},
      // The smallest positive denormal.
      {MakeTau(1, 2, 5, std::numeric_limits<double>::denorm_min()),
       "020100000002000000050000000100000000000000"},
      // A quiet NaN travels with its payload bits intact.
      {MakeLambda(DoubleWithBits(0x7ff80000c0ffee01ull)),
       "0301eeffc00000f87f"},
      {MakeJoin(), "04"},
      {MakeFriend(0x01020304, 7), "050403020107000000"},
      {MakeLeave(6), "0606000000"},
      {MakeAddItem(), "07"},
      {MakeRetireItem(11), "080b000000"},
      {MakeResolve(), "09"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(Hex(Encoded(c.command)), c.hex)
        << CommandTypeName(c.command.type);
  }
}

TEST(FormatGoldenTest, CommandLogBytes) {
  const CommandLog log = {MakePref(2, 4, 0.625), MakeJoin(), MakeResolve()};
  std::ostringstream out;
  ASSERT_TRUE(WriteCommandLog(log, &out).ok());
  EXPECT_EQ(Hex(out.str()),
            // "SVGB" | version 1 | count 3 | pref | join | resolve
            "53564742010000000300000000000000010200000004000000000000000000e4"
            "3f0409");
}

TEST(FormatGoldenTest, FrameAndApplyResultBytes) {
  std::string frames;
  AppendFrame(FrameKind::kApply, 0x0102030405060708ull, 42,
              Encoded(MakeTau(1, 2, 3, 0.25)), &frames, kFrameFlagTrace);
  ApplyResult result;
  result.code = StatusCode::kNotFound;
  result.message = "no user 9";
  result.assigned_id = -1;
  result.resolved = true;
  result.coalesced = 3;
  result.lp_objective = 12.5;
  result.scaled_total = -0.0;
  result.resolve_seconds = 1e-3;
  result.pivots = 17;
  std::string payload;
  EncodeApplyResult(result, &payload);
  AppendFrame(FrameKind::kError, 9, 0, payload, &frames);
  EXPECT_EQ(Hex(frames),
            // kApply frame: header (trace flag set) + encoded tau command.
            "535647460101010008070605040302012a000000150000000201000000020000"
            "0003000000000000000000d03f"
            // kError frame: header + encoded ApplyResult.
            "53564746018300000900000000000000000000003700000003090000006e6f20"
            "757365722039ffffffffffffffff010300000000000000000029400000000000"
            "000080fca9f1d24d62503f11000000");
}

TEST(FormatGoldenTest, TwoRecordChangelogBytes) {
  const std::string dir = ::testing::TempDir() + "/savg_format_golden_svgl";
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  const std::string path = dir + "/" + ChangelogFileName(2);
  FsyncPolicy policy;
  policy.mode = FsyncPolicy::Mode::kNever;
  auto writer = ChangelogWriter::Create(path, /*session_id=*/3, /*epoch=*/2,
                                        /*first_seq=*/17, policy);
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE((*writer)->Append(MakePref(1, 2, 0.75), false).ok());
  ASSERT_TRUE((*writer)->Append(MakeResolve(), true).ok());
  ASSERT_TRUE((*writer)->Close().ok());
  EXPECT_EQ(Hex(ReadFileBytes(path)),
            // "SVGL" | version 1 | session 3 | epoch 2 | first_seq 17
            "5356474c0100000003000000020000001100000000000000"
            // Record 1: len 17 | crc32 | encoded pref.
            "110000002961db2c010100000002000000000000000000e83f"
            // Record 2: len 1 | crc32 | encoded resolve.
            "010000002957deab09");
  std::remove(path.c_str());
}

TEST(FormatGoldenTest, SessionStateDigestAndSnapshotHeader) {
  DatasetParams params;
  params.kind = DatasetKind::kTimik;
  params.num_users = 6;
  params.num_items = 8;
  params.num_slots = 2;
  params.lambda = 0.5;
  params.seed = 3;
  params.universe_users = 44;
  auto instance = GenerateDataset(params);
  ASSERT_TRUE(instance.ok()) << instance.status();

  EventStreamParams events;
  events.num_mutations = 8;
  events.resolve_every = 4;
  events.seed = 5;
  events.w_tau = 0.0;
  events.w_join = 0.55;
  events.w_friend = 0.55;
  events.w_leave = 0.0;
  events.w_lambda = 0.0;
  events.w_add_item = 0.0;
  events.w_retire_item = 0.0;
  const CommandLog stream = GenerateEventStream(*instance, events);
  int joins = 0, friends = 0, resolves = 0;
  for (const SessionCommand& cmd : stream) {
    joins += cmd.type == CommandType::kJoin;
    friends += cmd.type == CommandType::kFriend;
    resolves += cmd.type == CommandType::kResolve;
  }
  ASSERT_GT(joins, 0);
  ASSERT_GT(friends, 0);
  ASSERT_GT(resolves, 0);

  Session session(std::move(instance).value());
  for (const SessionCommand& cmd : stream) {
    auto outcome = session.Apply(cmd);
    ASSERT_TRUE(outcome.ok())
        << CommandTypeName(cmd.type) << ": " << outcome.status();
  }
  const SessionState state = session.CaptureState();
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(SessionStateDigest(state)));
  EXPECT_EQ(std::string(digest), "8309deefc6b01596");

  const std::string dir = ::testing::TempDir() + "/savg_format_golden_svgs";
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  const std::string path = dir + "/" + SnapshotFileName(1);
  ASSERT_TRUE(WriteSnapshotFile(path, /*session_id=*/5, /*epoch=*/1,
                                /*applied_seq=*/stream.size(), state)
                  .ok());
  const std::string file = ReadFileBytes(path);
  ASSERT_GE(file.size(), 40u);
  EXPECT_EQ(Hex(file.substr(0, 40)),
            // "SVGS" | version 1 | session 5 | epoch 1 | applied_seq 10
            // | payload_len 5315 | payload crc32 | header crc32
            "535647530100000005000000010000000a00000000000000"
            "c31400000000000071d50de8653623db");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace savg
