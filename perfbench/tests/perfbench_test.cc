// Tests of the benchmark's own helpers: the tail-percentile rule, seeded
// command-stream determinism, the churn stream's id discipline, and the
// host-speed monitor.

#include <chrono>
#include <map>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "bench_core.h"
#include "host_speed.h"
#include "online/session.h"

namespace perfbench {
namespace {

using savg::CommandType;

TEST(TailRule, SamplesBeyondUsesNearestRank) {
  EXPECT_EQ(SamplesBeyond(100, 50.0), 50);
  EXPECT_EQ(SamplesBeyond(100, 90.0), 10);
  EXPECT_EQ(SamplesBeyond(101, 90.0), 10);  // rank ceil(90.9) = 91
  EXPECT_EQ(SamplesBeyond(0, 50.0), 0);
}

TEST(TailRule, PicksHighestPercentileWithTenBeyond) {
  EXPECT_EQ(HighestTailPercentile(19), 0.0);   // p50 leaves only 9
  EXPECT_EQ(HighestTailPercentile(20), 50.0);  // exactly 10 beyond p50
  EXPECT_EQ(HighestTailPercentile(40), 75.0);
  EXPECT_EQ(HighestTailPercentile(100), 90.0);
  EXPECT_EQ(HighestTailPercentile(199), 90.0);  // p95 leaves 9
  EXPECT_EQ(HighestTailPercentile(200), 95.0);
  EXPECT_EQ(HighestTailPercentile(999), 95.0);
  EXPECT_EQ(HighestTailPercentile(1000), 99.0);
  EXPECT_EQ(HighestTailPercentile(10000), 99.9);
  for (size_t n : {20u, 57u, 333u, 4096u}) {
    EXPECT_GE(SamplesBeyond(n, HighestTailPercentile(n)), kMinSamplesBeyond);
  }
}

TEST(TailRule, SummarizeReportsMedianAndTail) {
  std::vector<double> samples;
  for (int i = 1; i <= 200; ++i) samples.push_back(201 - i);  // 200..1
  const TimingSummary summary = Summarize(samples);
  EXPECT_EQ(summary.count, 200u);
  EXPECT_EQ(summary.median, 100.0);
  EXPECT_EQ(summary.tail_percentile, 95.0);
  EXPECT_EQ(summary.tail, 190.0);
  EXPECT_EQ(Summarize({3.0}).tail_percentile, 0.0);
}

// Canonical bytes of `rounds` rounds of a stream.
std::string EncodeStream(Workload workload, uint64_t seed,
                         const savg::SvgicInstance& initial, int rounds) {
  CommandStream stream(workload, seed, initial);
  std::vector<savg::SessionCommand> commands;
  std::vector<int64_t> ids;
  for (int r = 0; r < rounds; ++r) stream.NextRound(&commands, &ids);
  std::string bytes;
  for (const savg::SessionCommand& command : commands) {
    savg::EncodeCommand(command, &bytes);
  }
  return bytes;
}

savg::SvgicInstance ServeInstance() {
  auto instance = GenerateInstance(ServeSessionSpecs()[0]);
  EXPECT_TRUE(instance.ok());
  return std::move(*instance);
}

TEST(CommandStreams, SameSeedGivesIdenticalBytes) {
  const savg::SvgicInstance instance = ServeInstance();
  for (Workload workload : {Workload::kServeBurst, Workload::kServeChurn}) {
    const std::string a = EncodeStream(workload, 42, instance, 300);
    const std::string b = EncodeStream(workload, 42, instance, 300);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    EXPECT_NE(a, EncodeStream(workload, 43, instance, 300));
  }
  EXPECT_NE(SessionSeed(7, 0), SessionSeed(7, 1));
  EXPECT_EQ(SessionSeed(7, 1), SessionSeed(7, 1));
}

TEST(CommandStreams, BurstRoundIsEightPrefsThenEightResolves) {
  const savg::SvgicInstance instance = ServeInstance();
  CommandStream stream(Workload::kServeBurst, 5, instance);
  std::vector<savg::SessionCommand> round;
  std::vector<int64_t> ids;
  stream.NextRound(&round, &ids);
  ASSERT_EQ(round.size(), 16u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(round[i].type, CommandType::kPref);
  for (int i = 8; i < 16; ++i) EXPECT_EQ(round[i].type, CommandType::kResolve);
}

// Replays a long churn stream, tracking liveness independently of the
// generator, and applies every mutation to a real session: each command
// must name only live ids, and none may fail.
TEST(CommandStreams, ChurnNamesOnlyLiveIds) {
  const savg::SvgicInstance instance = ServeInstance();
  savg::Session session(instance);
  std::set<UserId> live_users;
  std::set<ItemId> live_items;
  for (UserId u = 0; u < instance.num_users(); ++u) live_users.insert(u);
  for (ItemId c = 0; c < instance.num_items(); ++c) live_items.insert(c);
  int next_user = instance.num_users();
  int next_item = instance.num_items();
  std::set<CommandType> seen;

  CommandStream stream(Workload::kServeChurn, 11, instance);
  for (int r = 0; r < 1000; ++r) {
    std::vector<savg::SessionCommand> round;
    std::vector<int64_t> ids;
    stream.NextRound(&round, &ids);
    ASSERT_EQ(round.size(), 5u);
    EXPECT_EQ(round.back().type, CommandType::kResolve);
    for (size_t i = 0; i + 1 < round.size(); ++i) {
      const savg::SessionCommand& cmd = round[i];
      seen.insert(cmd.type);
      switch (cmd.type) {
        // Utilities only ever change on the initial users, items and
        // friendships, so no guest's leave or promo's retirement removes LP
        // columns carrying mass.
        case CommandType::kPref:
          EXPECT_TRUE(live_users.count(cmd.u)) << "round " << r;
          EXPECT_TRUE(live_items.count(cmd.c)) << "round " << r;
          EXPECT_LT(cmd.u, instance.num_users());
          EXPECT_LT(cmd.c, instance.num_items());
          break;
        case CommandType::kTau:
          EXPECT_TRUE(live_users.count(cmd.u) && live_users.count(cmd.v));
          EXPECT_TRUE(live_items.count(cmd.c));
          EXPECT_NE(cmd.u, cmd.v);
          EXPECT_TRUE(instance.graph().HasEdge(cmd.u, cmd.v));
          EXPECT_LT(cmd.c, instance.num_items());
          break;
        case CommandType::kFriend:
          EXPECT_TRUE(live_users.count(cmd.u) && live_users.count(cmd.v));
          EXPECT_NE(cmd.u, cmd.v);
          break;
        case CommandType::kJoin:
          EXPECT_EQ(ids[i], next_user);
          live_users.insert(next_user++);
          break;
        case CommandType::kLeave:
          EXPECT_TRUE(live_users.erase(cmd.u)) << "round " << r;
          EXPECT_GE(cmd.u, instance.num_users());  // only guests leave
          break;
        case CommandType::kAddItem:
          EXPECT_EQ(ids[i], next_item);
          live_items.insert(next_item++);
          break;
        case CommandType::kRetireItem:
          EXPECT_TRUE(live_items.erase(cmd.c)) << "round " << r;
          EXPECT_GE(cmd.c, instance.num_items());  // only promos retire
          break;
        case CommandType::kLambda:
          EXPECT_GE(cmd.value, 0.2);
          EXPECT_LE(cmd.value, 0.8);
          break;
        default:
          ADD_FAILURE() << "unexpected command type";
      }
      auto outcome = session.Apply(cmd);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      if (ids[i] >= 0) EXPECT_EQ(outcome->assigned_id, ids[i]);
    }
  }
  // Every kind the workload promises actually occurs.
  for (CommandType type :
       {CommandType::kPref, CommandType::kTau, CommandType::kFriend,
        CommandType::kJoin, CommandType::kLeave, CommandType::kAddItem,
        CommandType::kRetireItem, CommandType::kLambda}) {
    EXPECT_TRUE(seen.count(type)) << savg::CommandTypeName(type);
  }
}

// Every period of the churn stream carries the same structural mix, and
// every round at least two preference or tau changes (a dirty resolve).
TEST(CommandStreams, ChurnMixIsTheSameInEveryPeriod) {
  const savg::SvgicInstance instance = ServeInstance();
  CommandStream stream(Workload::kServeChurn, 3, instance);
  std::map<CommandType, int> per_period;
  for (const ScheduledEvent& event : ChurnSchedule()) {
    ++per_period[event.type];
  }
  EXPECT_EQ(per_period[CommandType::kJoin], 7);
  EXPECT_EQ(per_period[CommandType::kLeave], 7);
  EXPECT_EQ(per_period[CommandType::kFriend], 14);
  EXPECT_EQ(per_period[CommandType::kAddItem], 3);
  EXPECT_EQ(per_period[CommandType::kRetireItem], 3);
  EXPECT_EQ(per_period[CommandType::kLambda], 4);
  for (int period = 0; period < 20; ++period) {
    std::map<CommandType, int> counts;
    for (int r = 0; r < kChurnPeriodRounds; ++r) {
      std::vector<savg::SessionCommand> round;
      std::vector<int64_t> ids;
      stream.NextRound(&round, &ids);
      int utility_changes = 0;
      for (size_t i = 0; i + 1 < round.size(); ++i) {
        const CommandType type = round[i].type;
        if (type == CommandType::kPref || type == CommandType::kTau) {
          ++utility_changes;
        } else {
          ++counts[type];
        }
      }
      EXPECT_GE(utility_changes, 2) << "period " << period << " round " << r;
    }
    EXPECT_EQ(counts, per_period) << "period " << period;
  }
}

TEST(HostSpeedMonitor, SamplesWithoutCountingAsWork) {
  const HostSpeedMonitor monitor;
  const double cpu = monitor.WorkCpuSeconds();
  const double from_ms = HostSpeedMonitor::NowMs();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const double to_ms = HostSpeedMonitor::NowMs();
  // About one sample per kPeriodMs, none of whose CPU time is work.
  EXPECT_GE(monitor.samples(), 5u);
  EXPECT_LT(monitor.WorkCpuSeconds() - cpu, 0.005);
  const double slowdown = monitor.Slowdown(from_ms, to_ms);
  EXPECT_GT(slowdown, 0.0);
  // An interval with no sample in it borrows the nearest samples.
  EXPECT_GT(monitor.Slowdown(to_ms + 1e6, to_ms + 2e6), 0.0);
}

}  // namespace
}  // namespace perfbench
