// Tests of the canonical SessionCommand binary codec and command log
// (src/serve/session_command.h): randomized round trips must be
// bit-exact, and malformed input (including anything that is not a binary
// "SVGB" log) must be rejected without reading past the buffer.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <random>
#include <sstream>
#include <string>

#include "datagen/datasets.h"
#include "serve/session_command.h"

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

SessionCommand RandomCommand(std::mt19937_64* rng) {
  std::uniform_int_distribution<int> tag(1, 9);
  std::uniform_int_distribution<int> id(0, 500);
  std::uniform_real_distribution<double> value(-2.0, 2.0);
  switch (static_cast<CommandType>(tag(*rng))) {
    case CommandType::kPref:
      return MakePref(id(*rng), id(*rng), value(*rng));
    case CommandType::kTau:
      return MakeTau(id(*rng), id(*rng), id(*rng), value(*rng));
    case CommandType::kLambda:
      return MakeLambda(value(*rng));
    case CommandType::kJoin:
      return MakeJoin();
    case CommandType::kFriend:
      return MakeFriend(id(*rng), id(*rng));
    case CommandType::kLeave:
      return MakeLeave(id(*rng));
    case CommandType::kAddItem:
      return MakeAddItem();
    case CommandType::kRetireItem:
      return MakeRetireItem(id(*rng));
    case CommandType::kResolve:
      return MakeResolve();
  }
  return MakeResolve();
}

TEST(SessionCommandTest, RandomizedRoundTripIsBitExact) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    const SessionCommand cmd = RandomCommand(&rng);
    std::string bytes;
    EncodeCommand(cmd, &bytes);
    EXPECT_EQ(bytes.size(), EncodedCommandSize(cmd));
    size_t consumed = 0;
    auto decoded = DecodeCommand(bytes.data(), bytes.size(), &consumed);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(consumed, bytes.size());
    EXPECT_EQ(*decoded, cmd);
    // Canonical: re-encoding the decoded command reproduces the bytes.
    std::string again;
    EncodeCommand(*decoded, &again);
    EXPECT_EQ(again, bytes);
  }
}

TEST(SessionCommandTest, SpecialDoubleBitsSurviveRoundTrip) {
  // IEEE-754 bit-pattern transport: negative zero and subnormals must
  // come back with the exact same bits (operator== would call -0.0 and
  // 0.0 equal, so compare bit patterns directly).
  for (double value : {-0.0, 5e-324, -5e-324, 1.0 / 3.0}) {
    const SessionCommand cmd = MakeLambda(value);
    std::string bytes;
    EncodeCommand(cmd, &bytes);
    size_t consumed = 0;
    auto decoded = DecodeCommand(bytes.data(), bytes.size(), &consumed);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    uint64_t in_bits = 0, out_bits = 0;
    std::memcpy(&in_bits, &value, sizeof(in_bits));
    std::memcpy(&out_bits, &decoded->value, sizeof(out_bits));
    EXPECT_EQ(in_bits, out_bits);
  }
}

TEST(SessionCommandTest, DecodeRejectsTruncatedAndUnknownTags) {
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 500; ++trial) {
    const SessionCommand cmd = RandomCommand(&rng);
    std::string bytes;
    EncodeCommand(cmd, &bytes);
    // Every strict prefix shorter than the encoding must fail cleanly.
    for (size_t len = 0; len < bytes.size(); ++len) {
      size_t consumed = 0;
      auto decoded = DecodeCommand(bytes.data(), len, &consumed);
      EXPECT_FALSE(decoded.ok())
          << "prefix " << len << " of " << bytes.size() << " decoded";
    }
  }
  // Unknown / reserved tags.
  for (int tag : {0, 10, 11, 42, 255}) {
    const char byte = static_cast<char>(tag);
    size_t consumed = 0;
    EXPECT_FALSE(DecodeCommand(&byte, 1, &consumed).ok()) << tag;
  }
}

TEST(SessionCommandTest, CommandLogStreamRoundTrip) {
  // A generated serving stream, which always ends in a resolve, followed
  // by random commands covering every tag and id range.
  EventStreamParams params;
  params.num_mutations = 60;
  params.resolve_every = 7;
  params.seed = 9;
  CommandLog log =
      GenerateEventStream(RandomInstance(10, 15, 3, 0.5, 2), params);
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.back().type, CommandType::kResolve);
  std::mt19937_64 rng(13);
  for (int i = 0; i < 300; ++i) log.push_back(RandomCommand(&rng));
  std::stringstream stream;
  ASSERT_TRUE(WriteCommandLog(log, &stream).ok());
  const std::string bytes = stream.str();
  auto read_back = ReadCommandLog(&stream);
  ASSERT_TRUE(read_back.ok()) << read_back.status();
  EXPECT_EQ(*read_back, log);
  // Re-serializing yields byte-identical output (diffable logs).
  std::stringstream stream2;
  ASSERT_TRUE(WriteCommandLog(*read_back, &stream2).ok());
  EXPECT_EQ(stream2.str(), bytes);
}

TEST(SessionCommandTest, CommandLogRejectsCorruptStreams) {
  CommandLog log = {MakePref(1, 2, 0.5), MakeResolve()};
  std::stringstream good;
  ASSERT_TRUE(WriteCommandLog(log, &good).ok());
  const std::string bytes = good.str();

  {  // Bad magic.
    std::string corrupt = bytes;
    corrupt[0] = 'X';
    std::stringstream in(corrupt);
    EXPECT_FALSE(ReadCommandLog(&in).ok());
  }
  {  // Truncated mid-command.
    std::stringstream in(bytes.substr(0, bytes.size() - 3));
    EXPECT_FALSE(ReadCommandLog(&in).ok());
  }
  {  // Trailing garbage after the declared command count.
    std::stringstream in(bytes + "junk");
    EXPECT_FALSE(ReadCommandLog(&in).ok());
  }
  {  // A log in the retired text format is not a command log.
    std::stringstream in("svgic" "events 1\npref\t1\t2\t0.5\nresolve\nend\n");
    auto read = ReadCommandLog(&in);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
  }
  {  // Random bytes in place of the magic, followed by a valid body.
    std::mt19937_64 rng(31);
    std::string corrupt = bytes;
    do {
      for (int i = 0; i < 4; ++i) corrupt[i] = static_cast<char>(rng());
    } while (corrupt.compare(0, 4, "SVGB") == 0);
    std::stringstream in(corrupt);
    auto read = ReadCommandLog(&in);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SessionCommandTest, FileRoundTripIsBitExact) {
  std::mt19937_64 rng(23);
  CommandLog log;
  for (int i = 0; i < 50; ++i) log.push_back(RandomCommand(&rng));

  const std::string binary_path =
      ::testing::TempDir() + "/commands_roundtrip.bin";
  ASSERT_TRUE(WriteCommandLogToFile(log, binary_path).ok());
  auto binary = ReadCommandLogFromFile(binary_path);
  ASSERT_TRUE(binary.ok()) << binary.status();
  EXPECT_EQ(*binary, log);
  std::remove(binary_path.c_str());
}

}  // namespace
}  // namespace savg
