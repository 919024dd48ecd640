#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>

#include "core/lp_formulation.h"
#include "core/objective.h"
#include "datagen/datasets.h"
#include "durability/snapshot.h"
#include "metrics/registry.h"
#include "obs/verify.h"
#include "online/basis_projection.h"
#include "online/session.h"
#include "online/session_manager.h"

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

/// Exact LP objective of the session's current instance, solved cold.
double ColdLpObjective(const SvgicInstance& instance) {
  RelaxationOptions options;
  options.method = RelaxationMethod::kSimplex;
  auto frac = SolveRelaxation(instance, options);
  EXPECT_TRUE(frac.ok()) << frac.status();
  return frac->lp_objective;
}

TEST(OnlineSessionTest, FirstResolveIsColdAndComplete) {
  Session session(RandomInstance(12, 20, 3, 0.5, 7));
  auto report = session.Resolve();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->path, ResolvePath::kCold);
  EXPECT_FALSE(report->warm_started);
  EXPECT_TRUE(session.config().IsComplete());
  EXPECT_TRUE(session.config().CheckValid().ok());
  EXPECT_GT(report->lp_objective, 0.0);
  EXPECT_GT(report->scaled_total, 0.0);
}

TEST(OnlineSessionTest, NoMutationResolveIsFreeIncremental) {
  Session session(RandomInstance(12, 20, 3, 0.5, 7));
  ASSERT_TRUE(session.Resolve().ok());
  auto again = session.Resolve();
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->path, ResolvePath::kIncremental);
  EXPECT_TRUE(again->warm_started);
  // Re-solving from the optimal basis of the identical LP does no pivot
  // (the counter includes the final optimality-detecting pricing pass).
  EXPECT_LE(again->pivots, 1);
  EXPECT_EQ(again->rerounded_units, 0);
}

TEST(OnlineSessionTest, SingleUserMutationPivotsAtLeast40PercentBelowCold) {
  // The acceptance workload: a bench-sized instance (larger than the
  // bench_online_sessions stream's n=20), one user's preferences
  // perturbed, incremental vs cold pivot counts. The m=40 bench shape at
  // n=24 keeps the cold reference in the thousands of pivots while
  // staying well inside the ctest timeout under ASan (the two cold
  // solves dominate the test).
  SvgicInstance base = RandomInstance(24, 40, 3, 0.5, 11);
  Session session(base, SessionOptions{});
  ASSERT_TRUE(session.Resolve().ok());

  ASSERT_TRUE(session.Apply(MakePref(3, 5, 0.9)).ok());
  ASSERT_TRUE(session.Apply(MakePref(3, 17, 0.05)).ok());
  auto warm = session.Resolve();
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ(warm->path, ResolvePath::kIncremental);
  EXPECT_TRUE(warm->warm_started);

  // Cold reference: a fresh session over the mutated instance.
  Session cold_session(session.instance(), SessionOptions{});
  auto cold = cold_session.Resolve(/*force_cold=*/true);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(cold->path, ResolvePath::kCold);

  EXPECT_NEAR(warm->lp_objective, cold->lp_objective,
              1e-6 * std::max(1.0, std::abs(cold->lp_objective)));
  ASSERT_GT(cold->pivots, 0);
  EXPECT_LE(warm->pivots, 0.6 * cold->pivots)
      << "incremental " << warm->pivots << " vs cold " << cold->pivots;
}

TEST(OnlineSessionTest, ResolveMatchesColdSolveAfterAnyMutationSequence) {
  // Property: after any mutation sequence, the incremental re-solve
  // reaches the same LP optimum as a cold solve of the mutated instance,
  // and the served configuration stays complete and valid.
  for (uint64_t stream_seed = 1; stream_seed <= 3; ++stream_seed) {
    SvgicInstance base = RandomInstance(14, 24, 3, 0.5, 100 + stream_seed);
    EventStreamParams stream;
    stream.num_mutations = 40;
    stream.resolve_every = 8;
    stream.seed = stream_seed;
    const CommandLog log = GenerateEventStream(base, stream);

    Session session(std::move(base));
    ASSERT_TRUE(session.Resolve().ok());
    for (const SessionCommand& command : log) {
      if (command.type != CommandType::kResolve) {
        ASSERT_TRUE(session.Apply(command).ok()) << "stream " << stream_seed;
        continue;
      }
      auto report = session.Resolve();
      ASSERT_TRUE(report.ok()) << report.status();
      const double cold_obj = ColdLpObjective(session.instance());
      EXPECT_NEAR(report->lp_objective, cold_obj,
                  1e-6 * std::max(1.0, std::abs(cold_obj)))
          << "stream " << stream_seed << " path "
          << ResolvePathName(report->path);
      EXPECT_TRUE(session.config().IsComplete());
      EXPECT_TRUE(session.config().CheckValid().ok());
      EXPECT_EQ(session.config().num_users(),
                session.instance().num_users());
      EXPECT_EQ(session.config().num_items(),
                session.instance().num_items());
    }
  }
}

TEST(OnlineSessionTest, MutationsDriveStructuralChanges) {
  Session session(RandomInstance(10, 16, 3, 0.5, 21));
  ASSERT_TRUE(session.Resolve().ok());

  auto joined = session.Apply(MakeJoin());
  ASSERT_TRUE(joined.ok());
  const UserId user = static_cast<UserId>(joined->assigned_id);
  EXPECT_EQ(user, 10);
  ASSERT_TRUE(session.Apply(MakePref(user, 2, 0.8)).ok());
  ASSERT_TRUE(session.Apply(MakeTau(user, 0, 2, 0.5)).ok());
  auto added = session.Apply(MakeAddItem());
  ASSERT_TRUE(added.ok());
  const ItemId item = static_cast<ItemId>(added->assigned_id);
  EXPECT_EQ(item, 16);
  ASSERT_TRUE(session.Apply(MakePref(1, item, 0.7)).ok());
  ASSERT_TRUE(session.Apply(MakeRetireItem(0)).ok());
  ASSERT_TRUE(session.Apply(MakeLeave(4)).ok());

  auto report = session.Resolve();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(session.config().num_users(), 11);
  EXPECT_EQ(session.config().num_items(), 17);
  EXPECT_TRUE(session.config().IsComplete());
  const double cold_obj = ColdLpObjective(session.instance());
  EXPECT_NEAR(report->lp_objective, cold_obj,
              1e-6 * std::max(1.0, std::abs(cold_obj)));
  // A departed user contributes nothing to the objective.
  for (ItemId c = 0; c < session.instance().num_items(); ++c) {
    EXPECT_EQ(session.instance().p(4, c), 0.0);
  }
}

TEST(OnlineSessionTest, LambdaChangeKeepsShapeAndWarmStarts) {
  Session session(RandomInstance(16, 24, 3, 0.5, 5));
  ASSERT_TRUE(session.Resolve().ok());
  ASSERT_TRUE(session.Apply(MakeLambda(0.7)).ok());
  auto report = session.Resolve();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->path, ResolvePath::kIncremental);
  EXPECT_TRUE(report->warm_started);
  EXPECT_EQ(report->changed_fraction, 0.0);
  const double cold_obj = ColdLpObjective(session.instance());
  EXPECT_NEAR(report->lp_objective, cold_obj,
              1e-6 * std::max(1.0, std::abs(cold_obj)));
}

TEST(OnlineSessionTest, DriftTriggeredReroundFreesEveryUnit) {
  // A threshold above 1 makes every incremental resolve's kept-unit share
  // fall "below" it: the drift trigger must then free every unit, while a
  // near-zero threshold must never fire.
  SessionOptions eager;
  eager.reround_utility_threshold = 2.0;
  Session session(RandomInstance(14, 20, 3, 0.5, 11), eager);
  const int all_units =
      session.instance().num_users() * session.instance().num_slots();
  auto first = session.Resolve();
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->full_reround);  // cold resolves keep nothing anyway
  double value = 0.2;
  for (int resolve = 0; resolve < 4; ++resolve) {
    ASSERT_TRUE(session.Apply(MakePref(resolve % 14, 2, value)).ok());
    value += 0.05;
    auto report = session.Resolve();
    ASSERT_TRUE(report.ok()) << report.status();
    ASSERT_EQ(report->path, ResolvePath::kIncremental);
    EXPECT_TRUE(report->full_reround);
    EXPECT_EQ(report->rerounded_units, all_units);
    EXPECT_GT(report->kept_utility_share, 0.0);
    EXPECT_LE(report->kept_utility_share, 1.0);
    EXPECT_TRUE(session.config().IsComplete());
  }

  SessionOptions off;
  off.reround_utility_threshold = 1e-9;
  Session calm(RandomInstance(14, 20, 3, 0.5, 11), off);
  ASSERT_TRUE(calm.Resolve().ok());
  ASSERT_TRUE(calm.Apply(MakePref(3, 2, 0.9)).ok());
  auto report = calm.Resolve();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->full_reround);
  EXPECT_LT(report->rerounded_units, all_units);
}

/// A resolve answered from the served state. Its zero refactorizations
/// do not identify it: a full resolve that reuses the engine's LU reports
/// zero as well.
bool Reused(const ResolveReport& report) {
  if (report.reused) {
    EXPECT_EQ(report.path, ResolvePath::kIncremental);
    EXPECT_EQ(report.refactorizations, 0);
    EXPECT_EQ(report.lp_stats.reused_factorizations, 0);
  }
  return report.reused;
}

Result<ResolveReport> ResolveOnce(Session* session) {
  auto outcome = session->Apply(MakeResolve());
  if (!outcome.ok()) return outcome.status();
  return outcome->report;
}

TEST(OnlineSessionTest, NoopResolveReuseMatchesAFullResolveBitExactly) {
  // At every resolve of seeded streams with extra back-to-back resolves,
  // the live session must agree with a FromState copy, whose first resolve
  // always runs the full path, on the report and the resulting state. The
  // drift-threshold arm keeps the re-round policy's answers covered too.
  int reused = 0;
  for (double threshold : {0.0, 0.97}) {
    for (uint64_t seed : {3u, 5u}) {
      const SvgicInstance base = RandomInstance(10, 16, 2, 0.5, 90 + seed);
      EventStreamParams params;
      params.num_mutations = 24;
      params.resolve_every = 3;
      params.seed = seed;
      CommandLog stream{MakeResolve()};
      for (const SessionCommand& command : GenerateEventStream(base, params)) {
        stream.push_back(command);
        if (command.type != CommandType::kResolve) continue;
        for (int extra = 0; extra < 1 + static_cast<int>(seed % 3); ++extra) {
          stream.push_back(MakeResolve());
        }
      }
      SessionOptions options;
      options.seed = seed;
      options.reround_utility_threshold = threshold;
      Session live(base, options);
      for (const SessionCommand& command : stream) {
        if (command.type != CommandType::kResolve) {
          ASSERT_TRUE(live.Apply(command).ok());
          continue;
        }
        auto copy = Session::FromState(live.CaptureState(), options);
        auto got = ResolveOnce(&live);
        auto want = ResolveOnce(copy.get());
        ASSERT_TRUE(got.ok()) << got.status();
        ASSERT_TRUE(want.ok()) << want.status();
        EXPECT_FALSE(Reused(*want));
        if (Reused(*got)) ++reused;
        EXPECT_EQ(got->path, want->path);
        EXPECT_EQ(got->pivots, want->pivots);
        EXPECT_EQ(got->lp_objective, want->lp_objective);
        EXPECT_EQ(got->scaled_total, want->scaled_total);
        EXPECT_EQ(got->rerounded_units, want->rerounded_units);
        EXPECT_EQ(SessionStateDigest(live.CaptureState()),
                  SessionStateDigest(copy->CaptureState()))
            << "seed " << seed << " threshold " << threshold << " resolve "
            << live.num_resolves();
      }
    }
  }
  EXPECT_GT(reused, 0);
}

TEST(OnlineSessionTest, NoopResolveReuseStopsWhenTheAnswerMayChange) {
  const SvgicInstance base = RandomInstance(10, 16, 2, 0.5, 7);
  // Cold first resolve, then a 0-pivot warm resolve whose answer the next
  // resolve may reuse.
  auto settle = [](Session* session) {
    auto full = ResolveOnce(session);
    ASSERT_TRUE(full.ok()) << full.status();
    ASSERT_FALSE(Reused(*full));
    ASSERT_EQ(full->path, ResolvePath::kIncremental);
    ASSERT_EQ(full->pivots, 0);
  };
  Session session(base);
  ASSERT_TRUE(ResolveOnce(&session).ok());
  settle(&session);
  auto reused = ResolveOnce(&session);
  ASSERT_TRUE(reused.ok());
  EXPECT_TRUE(Reused(*reused));
  EXPECT_EQ(reused->num_dirty_users, 0);
  EXPECT_EQ(reused->rerounded_units, 0);
  EXPECT_EQ(reused->lp_stats.primal_pivots, 0);

  // A rejected command changes nothing, so the answer still stands.
  ASSERT_FALSE(session.Apply(MakePref(500, 0, 0.5)).ok());
  EXPECT_TRUE(Reused(*ResolveOnce(&session)));

  // Structural and objective changes force the full path.
  ASSERT_TRUE(session.Apply(MakeAddItem()).ok());
  EXPECT_FALSE(Reused(*ResolveOnce(&session)));
  ASSERT_TRUE(session.Apply(MakeLambda(0.6)).ok());
  EXPECT_FALSE(Reused(*ResolveOnce(&session)));
  // force_cold always solves.
  settle(&session);
  auto cold = session.Resolve(/*force_cold=*/true);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->path, ResolvePath::kCold);

  // A resolve that pivoted is followed by a full resolve.
  bool pivoted = false;
  for (int i = 0; i < 10 && !pivoted; ++i) {
    ASSERT_TRUE(session.Apply(MakePref(i, (3 * i) % 16, 5.0)).ok());
    auto report = ResolveOnce(&session);
    ASSERT_TRUE(report.ok()) << report.status();
    pivoted = report->pivots > 0;
  }
  ASSERT_TRUE(pivoted);
  EXPECT_FALSE(Reused(*ResolveOnce(&session)));

  // With the drift threshold on, every resolve measures the kept share.
  SessionOptions drift;
  drift.reround_utility_threshold = 1e-9;
  Session drifting(base, drift);
  ASSERT_TRUE(ResolveOnce(&drifting).ok());
  settle(&drifting);
  EXPECT_FALSE(Reused(*ResolveOnce(&drifting)));

  // The reusable answer is not persisted: a restored session solves.
  auto restored = Session::FromState(session.CaptureState(), {});
  settle(restored.get());
}

TEST(OnlineSessionTest, ForcedVerifyOfAReusedAnswerAuditsItOnce) {
  MetricsRegistry metrics;
  VerifierOptions verify_options;
  verify_options.sample_every = 0;  // forced requests only
  SolutionVerifier verifier(&metrics, verify_options);
  SessionOptions options;
  options.verifier = &verifier;
  Session session(RandomInstance(10, 16, 2, 0.5, 7), options);
  ASSERT_TRUE(ResolveOnce(&session).ok());
  auto full = ResolveOnce(&session);  // unverified 0-pivot warm solve
  ASSERT_TRUE(full.ok());
  ASSERT_FALSE(Reused(*full));
  ASSERT_EQ(full->pivots, 0);
  verifier.Flush();
  ASSERT_EQ(metrics.GetCounter("verify.pass")->value(), 0);

  for (int i = 0; i < 2; ++i) {
    ScopedForceVerify force(true);
    auto reused = ResolveOnce(&session);
    ASSERT_TRUE(reused.ok());
    EXPECT_TRUE(Reused(*reused));
  }
  verifier.Flush();
  // The retained solution, with the rebuilt LP, went into one audit (its
  // KKT check passing shows the rebuild is the solved LP); the second
  // forced reuse of the same, already audited answer enqueued nothing.
  EXPECT_EQ(metrics.GetCounter("verify.pass")->value(), 1);
  EXPECT_EQ(metrics.GetCounter("verify.fail")->value(), 0);
  EXPECT_EQ(metrics.GetCounter("verify.kkt_audits")->value(), 1);
}

TEST(OnlineSessionTest, HeldVerifyJobIsReservedAndSnapshotsTheResolve) {
  MetricsRegistry metrics;
  VerifierOptions verify_options;
  verify_options.sample_every = 0;  // forced requests only
  SolutionVerifier verifier(&metrics, verify_options);
  SessionOptions options;
  options.verifier = &verifier;
  Session session(RandomInstance(10, 16, 2, 0.5, 7), options);
  ASSERT_TRUE(ResolveOnce(&session).ok());
  {
    ScopedForceVerify force(true);
    ScopedHoldVerify hold;
    ASSERT_TRUE(ResolveOnce(&session).ok());
  }
  // Reserved but held: Flush() waits for it.
  auto flushed = std::async(std::launch::async, [&] { verifier.Flush(); });
  EXPECT_EQ(flushed.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  // The next command hands the job over before it mutates anything, so
  // the audit sees the resolved instance, not one whose LP gained a
  // filler column per user for the new item.
  auto added = session.Apply(MakeAddItem());
  flushed.get();
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(metrics.GetCounter("verify.pass")->value(), 1);
  EXPECT_EQ(metrics.GetCounter("verify.kkt_audits")->value(), 1);
}

TEST(OnlineSessionTest, RetiringItemAddedSinceLastResolveIsSafe) {
  // Regression: the served configuration predates the added item, so the
  // retire path must not probe config slots for the new id.
  Session session(RandomInstance(8, 12, 2, 0.5, 9));
  ASSERT_TRUE(session.Resolve().ok());
  auto added = session.Apply(MakeAddItem());
  ASSERT_TRUE(added.ok());
  const ItemId item = static_cast<ItemId>(added->assigned_id);
  ASSERT_TRUE(session.Apply(MakeRetireItem(item)).ok());
  auto report = session.Resolve();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(session.config().num_items(), 13);
  EXPECT_TRUE(session.config().IsComplete());
}

TEST(OnlineSessionTest, RejectsInvalidMutations) {
  Session session(RandomInstance(8, 12, 2, 0.5, 3));
  EXPECT_FALSE(session.Apply(MakePref(99, 0, 0.5)).ok());
  EXPECT_FALSE(session.Apply(MakePref(0, 99, 0.5)).ok());
  EXPECT_FALSE(session.Apply(MakePref(0, 0, -0.5)).ok());
  EXPECT_FALSE(session.Apply(MakeTau(0, 0, 0, 0.5)).ok());  // self pair
  EXPECT_FALSE(session.Apply(MakeLambda(0.0)).ok());
  EXPECT_FALSE(session.Apply(MakeLambda(1.5)).ok());
  EXPECT_FALSE(session.Apply(MakeLeave(-1)).ok());
  EXPECT_FALSE(session.Apply(MakeRetireItem(99)).ok());
}

TEST(OnlineSessionTest, RefusesNonFiniteMutationValuesAsANoOp) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<SessionCommand> refused;
  // p and tau are stored as floats: 1e39 would become +inf.
  for (double bad : {nan, inf, 1e39}) {
    refused.push_back(MakePref(0, 1, bad));
    refused.push_back(MakeTau(0, 1, 1, bad));
  }
  // At 1e-310, (1 - lambda) / lambda overflows.
  for (double bad : {nan, inf, -inf, 1e-310}) {
    refused.push_back(MakeLambda(bad));
  }
  auto expect_refused = [](Session* session, const SessionCommand& command) {
    const uint64_t before = SessionStateDigest(session->CaptureState());
    auto outcome = session->Apply(command);
    ASSERT_FALSE(outcome.ok()) << CommandTypeName(command.type) << " "
                               << command.value;
    EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(SessionStateDigest(session->CaptureState()), before);
    auto report = ResolveOnce(session);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_TRUE(std::isfinite(report->lp_objective));
    EXPECT_TRUE(std::isfinite(report->scaled_total));
  };
  Session session(RandomInstance(8, 12, 2, 0.5, 3));
  ASSERT_TRUE(session.Resolve().ok());
  for (const SessionCommand& command : refused) {
    expect_refused(&session, command);
  }
  // The floor on lambda bounds whole objective sums, not single products:
  // under lambda 1e-300 two preferences of 1.5e8 each scale finitely
  // (1.5e308) but sum past DBL_MAX. The lambda is refused before or after
  // them, and the preferences apply either way.
  const SessionCommand tiny_lambda = MakeLambda(1e-300);
  for (bool lambda_first : {true, false}) {
    SCOPED_TRACE(lambda_first ? "lambda first" : "preferences first");
    Session paired(RandomInstance(8, 12, 2, 0.5, 3));
    if (lambda_first) expect_refused(&paired, tiny_lambda);
    ASSERT_TRUE(paired.Apply(MakePref(0, 1, 1.5e8)).ok());
    ASSERT_TRUE(paired.Apply(MakePref(0, 2, 1.5e8)).ok());
    if (!lambda_first) expect_refused(&paired, tiny_lambda);
  }
  // The smallest accepted lambda scales every preference by 2^832, and
  // the resolve stays finite.
  Session at_floor(RandomInstance(8, 12, 2, 0.5, 3));
  ASSERT_TRUE(at_floor.Apply(MakeLambda(0x1p-832)).ok());
  auto report = ResolveOnce(&at_floor);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(std::isfinite(report->lp_objective));
  EXPECT_TRUE(std::isfinite(report->scaled_total));
}

/// The base instance of SessionWorkTest's seeded stream.
SvgicInstance WorkStreamBase() { return RandomInstance(12, 20, 3, 0.5, 31); }

/// A seeded stream with every command type over WorkStreamBase().
CommandLog WorkStream(const SvgicInstance& base) {
  EventStreamParams params;
  params.num_mutations = 120;
  params.resolve_every = 3;
  params.seed = 31;
  CommandLog stream{MakeResolve()};
  for (const SessionCommand& command : GenerateEventStream(base, params)) {
    stream.push_back(command);
    // Back-to-back resolves: a 0-pivot solve makes the next one a reuse.
    if (command.type == CommandType::kResolve) stream.push_back(command);
  }
  return stream;
}

TEST(SessionWorkTest, ExactWorkOfASeededStreamIsPinned) {
  // A seeded stream with every command type. The LP engine is a memo, so
  // at every resolve the live session must agree with a FromState copy,
  // whose engine starts empty, on the answer and the resulting state; and
  // the work the live session does is pinned exactly: LP rebuilds, basis
  // projections, factorizations, reused LUs and pivots.
  const SvgicInstance base = WorkStreamBase();
  const CommandLog stream = WorkStream(base);
  std::map<CommandType, int> types;
  for (const SessionCommand& command : stream) ++types[command.type];
  EXPECT_EQ(types.size(), 9u) << "every command type must occur";

  Session live(base);
  int resolves = 0, reused = 0, rebuilds = 0, projections = 0;
  int64_t factorizations = 0, reused_lus = 0, pivots = 0;
  for (const SessionCommand& command : stream) {
    if (command.type != CommandType::kResolve) {
      ASSERT_TRUE(live.Apply(command).ok()) << CommandTypeName(command.type);
      continue;
    }
    auto copy = Session::FromState(live.CaptureState(), {});
    auto got = ResolveOnce(&live);
    auto want = ResolveOnce(copy.get());
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(want.ok()) << want.status();
    EXPECT_TRUE(want->lp_rebuilt);
    EXPECT_EQ(want->lp_stats.reused_factorizations, 0);
    EXPECT_EQ(got->path, want->path);
    EXPECT_EQ(got->pivots, want->pivots);
    EXPECT_EQ(got->lp_objective, want->lp_objective);
    EXPECT_EQ(got->scaled_total, want->scaled_total);
    EXPECT_EQ(got->rerounded_units, want->rerounded_units);
    EXPECT_EQ(SessionStateDigest(live.CaptureState()),
              SessionStateDigest(copy->CaptureState()))
        << "resolve " << live.num_resolves();
    if (!got->reused) {
      // The memo only skips work: each LU is either built or reused.
      EXPECT_EQ(got->refactorizations + got->lp_stats.reused_factorizations,
                want->refactorizations);
    }
    ++resolves;
    reused += got->reused ? 1 : 0;
    rebuilds += got->lp_rebuilt ? 1 : 0;
    projections += got->basis_projected ? 1 : 0;
    factorizations += got->refactorizations;
    reused_lus += got->lp_stats.reused_factorizations;
    pivots += got->pivots;
  }
  EXPECT_EQ(resolves, 81);
  EXPECT_EQ(reused, 8);
  EXPECT_EQ(rebuilds, 31);  // the cold first resolve + 30 key changes
  EXPECT_EQ(projections, 30);
  EXPECT_EQ(factorizations, 95);
  EXPECT_EQ(reused_lus, 12);
  EXPECT_EQ(pivots, 1560);
}

/// FNV-1a 64, fed the bits of doubles and the bytes of basis statuses.
class BitsHash {
 public:
  void Add(const std::vector<double>& values) {
    for (double v : values) {
      unsigned char bytes[sizeof(double)];
      std::memcpy(bytes, &v, sizeof(double));
      for (unsigned char b : bytes) Byte(b);
    }
  }
  void Add(const LpBasis& basis) {
    for (VarBasisStatus s : basis.structural) Byte(static_cast<uint8_t>(s));
    for (VarBasisStatus s : basis.logical) Byte(static_cast<uint8_t>(s));
  }
  uint64_t value() const { return hash_; }

 private:
  void Byte(uint8_t b) {
    hash_ ^= b;
    hash_ *= 1099511628211ull;
  }
  uint64_t hash_ = 1469598103934665603ull;
};

TEST(SessionWorkTest, LpAnswerBitsOfASeededStreamArePinned) {
  // Every LP answer of SessionWorkTest's stream, bit for bit: the point,
  // the row duals and the basis of each solving resolve. A mirror engine
  // re-solves each resolve's LP the way the session does (the refreshed
  // LP of the instance it solved, warm from the basis it held when the
  // path was incremental), so it sees the same loads, value edits and
  // reused LUs; it must agree with the live resolve's objective, pivots
  // and stored basis, and the digests of its answers are pinned.
  const SvgicInstance base = WorkStreamBase();
  const CommandLog stream = WorkStream(base);
  Session live(base);
  CompactLpEngine mirror;
  BitsHash x_hash, dual_hash, basis_hash;
  int solves = 0;
  for (const SessionCommand& command : stream) {
    if (command.type != CommandType::kResolve) {
      ASSERT_TRUE(live.Apply(command).ok()) << CommandTypeName(command.type);
      continue;
    }
    const SessionState before = live.CaptureState();
    auto report = ResolveOnce(&live);
    ASSERT_TRUE(report.ok()) << report.status();
    if (report->reused) continue;
    const SessionState after = live.CaptureState();
    ASSERT_TRUE(mirror.Refresh(after.instance).ok());
    LpBasis projected;
    const LpBasis* warm = nullptr;
    if (report->path == ResolvePath::kIncremental) {
      const bool same_keys = before.keys.cols == mirror.keys().cols &&
                             before.keys.rows == mirror.keys().rows;
      projected = same_keys ? before.basis
                            : ProjectCompactBasis(before.basis, before.keys,
                                                  mirror.keys());
      warm = &projected;
    }
    auto sol = mirror.simplex().Solve(SessionOptions().simplex, warm);
    ASSERT_TRUE(sol.ok()) << sol.status();
    const std::string what = "resolve " + std::to_string(live.num_resolves());
    ASSERT_EQ(sol->objective, report->lp_objective) << what;
    ASSERT_EQ(sol->iterations, report->pivots) << what;
    ASSERT_EQ(sol->stats.refactorizations, report->refactorizations) << what;
    ASSERT_EQ(sol->basis.structural, after.basis.structural) << what;
    ASSERT_EQ(sol->basis.logical, after.basis.logical) << what;
    x_hash.Add(sol->x);
    dual_hash.Add(sol->dual_values);
    basis_hash.Add(sol->basis);
    ++solves;
  }
  EXPECT_EQ(solves, 73);
  EXPECT_EQ(x_hash.value(), 0x96a1517ee2daf95aull);
  EXPECT_EQ(dual_hash.value(), 0xce83043fbc200d97ull);
  EXPECT_EQ(basis_hash.value(), 0xcc34815dc253fc42ull);
}

TEST(SessionFuzzTest, CorruptCommandsAreRefusedOrApplyAndResolve) {
  // Bit-flipped and truncated encodings of a captured stream, with a fixed
  // seed. Each must be refused by DecodeCommand with InvalidArgument, or
  // decode into a command Session::Apply applies or refuses with a Status;
  // after every applied command a resolve must succeed with a finite
  // objective. The session restarts from the base instance every 100
  // trials, so joins and added items cannot grow it without bound.
  const SvgicInstance base = RandomInstance(8, 12, 2, 0.5, 21);
  EventStreamParams params;
  params.num_mutations = 80;
  params.resolve_every = 4;
  params.seed = 21;
  std::vector<std::string> encodings;
  for (const SessionCommand& command : GenerateEventStream(base, params)) {
    encodings.emplace_back();
    EncodeCommand(command, &encodings.back());
  }
  std::mt19937_64 rng(2026);
  std::unique_ptr<Session> session;
  int undecodable = 0;
  int refused = 0;
  int applied = 0;
  for (int trial = 0; trial < 2400; ++trial) {
    if (trial % 100 == 0) {
      session = std::make_unique<Session>(base);
      ASSERT_TRUE(session->Resolve().ok());
    }
    std::string bytes = encodings[rng() % encodings.size()];
    if (rng() % 4 == 0) {
      bytes.resize(rng() % bytes.size());
    } else {
      for (int flips = 1 + static_cast<int>(rng() % 3); flips > 0; --flips) {
        bytes[rng() % bytes.size()] ^= static_cast<char>(1u << (rng() % 8));
      }
    }
    size_t consumed = 0;
    auto command = DecodeCommand(bytes.data(), bytes.size(), &consumed);
    if (!command.ok()) {
      EXPECT_EQ(command.status().code(), StatusCode::kInvalidArgument);
      ++undecodable;
      continue;
    }
    EXPECT_LE(consumed, bytes.size());
    if (!session->Apply(*command).ok()) {
      ++refused;
      continue;
    }
    ++applied;
    auto report = ResolveOnce(session.get());
    const std::string what = "trial " + std::to_string(trial) + " " +
                             CommandTypeName(command->type) + " u " +
                             std::to_string(command->u) + " v " +
                             std::to_string(command->v) + " c " +
                             std::to_string(command->c) + " value " +
                             ::testing::PrintToString(command->value);
    ASSERT_TRUE(report.ok()) << what << ": " << report.status();
    ASSERT_TRUE(std::isfinite(report->lp_objective)) << what;
    ASSERT_TRUE(std::isfinite(report->scaled_total)) << what;
  }
  EXPECT_GT(undecodable, 0);
  EXPECT_GT(refused, 0);
  EXPECT_GT(applied, 0);
}

TEST(BasisProjectionTest, IdentityProjectionIsExact) {
  SvgicInstance inst = RandomInstance(10, 16, 3, 0.5, 13);
  CompactLpMap map;
  auto lp = BuildCompactLp(inst, &map);
  ASSERT_TRUE(lp.ok());
  auto sol = SolveLp(*lp);
  ASSERT_TRUE(sol.ok());
  const CompactLpKeys keys = BuildCompactLpKeys(inst, map, *lp);

  BasisProjectionDelta delta;
  const LpBasis projected =
      ProjectCompactBasis(sol->basis, keys, keys, &delta);
  EXPECT_EQ(delta.ChangedFraction(), 0.0);
  EXPECT_EQ(delta.new_cols, 0);
  EXPECT_EQ(delta.dropped_cols, 0);
  auto warm = SolveLp(*lp, SimplexOptions{}, &projected);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->warm_started);
  EXPECT_EQ(warm->iterations, 0);
  EXPECT_NEAR(warm->objective, sol->objective, 1e-9);
}

TEST(BasisProjectionTest, ProjectsAcrossAddedUser) {
  SvgicInstance inst = RandomInstance(12, 18, 3, 0.5, 17);
  CompactLpMap map;
  auto lp = BuildCompactLp(inst, &map);
  ASSERT_TRUE(lp.ok());
  auto sol = SolveLp(*lp);
  ASSERT_TRUE(sol.ok());
  const CompactLpKeys keys = BuildCompactLpKeys(inst, map, *lp);

  // Mutate: a new user joins, befriends user 0 and likes two items.
  const UserId nu = inst.AddUser();
  ASSERT_TRUE(inst.AddFriendship(nu, 0).ok());
  inst.set_p(nu, 1, 0.9);
  inst.set_p(nu, 2, 0.4);
  inst.SetTauValue(inst.graph().FindEdge(nu, 0), 1, 0.6);
  inst.RefinalizePairs({nu, 0});
  ASSERT_TRUE(inst.Validate().ok());

  CompactLpMap new_map;
  auto new_lp = BuildCompactLp(inst, &new_map);
  ASSERT_TRUE(new_lp.ok());
  const CompactLpKeys new_keys = BuildCompactLpKeys(inst, new_map, *new_lp);

  BasisProjectionDelta delta;
  const LpBasis projected =
      ProjectCompactBasis(sol->basis, keys, new_keys, &delta);
  EXPECT_GT(delta.new_cols, 0);
  EXPECT_GT(delta.surviving_cols, 0);

  auto cold = SolveLp(*new_lp);
  auto warm = SolveLp(*new_lp, SimplexOptions{}, &projected);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->warm_started);
  EXPECT_NEAR(warm->objective, cold->objective, 1e-7);
  EXPECT_LT(warm->iterations, cold->iterations);
}

TEST(BasisProjectionTest, ValueOnlyEditsKeepEveryKey) {
  // Each co-display entry's s column and row sit on the pair's larger user
  // id, so edits that change values but not the LP's shape keep every key
  // and project the cached basis whole. Orienting entries by p' instead
  // would flip one on the preference swap below: its row would change sign
  // under the same keys, and the carried basis would mean something else.
  SvgicInstance inst = RandomInstance(14, 20, 3, 0.5, 29);
  // Every row's terms, flattened: the constraint matrix.
  using Terms = std::vector<std::pair<int, double>>;
  auto keys_and_basis = [&](LpBasis* basis, Terms* terms) {
    CompactLpMap map;
    auto lp = BuildCompactLp(inst, &map);
    EXPECT_TRUE(lp.ok()) << lp.status();
    auto sol = SolveLp(*lp);
    EXPECT_TRUE(sol.ok()) << sol.status();
    *basis = sol->basis;
    terms->clear();
    for (const LpRow& row : lp->rows()) {
      for (const LpTerm& t : row.terms) terms->emplace_back(t.var, t.coef);
    }
    return BuildCompactLpKeys(inst, map, *lp);
  };
  LpBasis basis;
  Terms terms;
  const CompactLpKeys keys = keys_and_basis(&basis, &terms);

  // A pair entry whose endpoints both like the item, unequally.
  UserId lo = -1, hi = -1;
  ItemId item = -1;
  EdgeId edge = -1;
  float tau = 0.0f;
  for (const FriendPair& pair : inst.pairs()) {
    for (const ItemValue& iv : pair.weights) {
      const double pu = inst.p(pair.u, iv.item);
      const double pv = inst.p(pair.v, iv.item);
      if (lo < 0 && pu > 0.0 && pv > 0.0 && pu != pv) {
        lo = pu < pv ? pair.u : pair.v;
        hi = pu < pv ? pair.v : pair.u;
        item = iv.item;
      }
    }
  }
  ASSERT_GE(lo, 0);
  for (EdgeId e = 0; e < inst.graph().num_edges() && edge < 0; ++e) {
    if (!inst.TauEntries(e).empty() && inst.TauEntries(e)[0].value > 0.0f) {
      edge = e;
      tau = inst.TauEntries(e)[0].value;
    }
  }
  ASSERT_GE(edge, 0);

  const auto check = [&](const char* step, std::vector<UserId> dirty) {
    inst.RefinalizePairs(dirty);
    ASSERT_TRUE(inst.Validate().ok()) << step;
    LpBasis new_basis;
    Terms new_terms;
    const CompactLpKeys new_keys = keys_and_basis(&new_basis, &new_terms);
    EXPECT_TRUE(new_terms == terms) << step;
    EXPECT_TRUE(new_keys.cols == keys.cols) << step;
    EXPECT_TRUE(new_keys.rows == keys.rows) << step;
    BasisProjectionDelta delta;
    const LpBasis projected =
        ProjectCompactBasis(basis, keys, new_keys, &delta);
    EXPECT_EQ(delta.ChangedFraction(), 0.0) << step;
    EXPECT_EQ(delta.new_rows, 0) << step;
    EXPECT_EQ(delta.dropped_rows, 0) << step;
    EXPECT_TRUE(projected.structural == basis.structural) << step;
    EXPECT_TRUE(projected.logical == basis.logical) << step;
    basis = new_basis;
  };

  // A preference swap reorders p' across the pair.
  const double p_lo = inst.p(lo, item);
  const double p_hi = inst.p(hi, item);
  inst.set_p(lo, item, p_hi);
  inst.set_p(hi, item, p_lo);
  ASSERT_GT(inst.ScaledP(lo, item), inst.ScaledP(hi, item));
  check("preference swap", {lo, hi});

  // A tau edit that keeps the entry positive.
  const Edge& e = inst.graph().edges()[edge];
  inst.SetTauValue(edge, inst.TauEntries(edge)[0].item, 0.5 * tau);
  check("tau edit", {e.u, e.v});

  // A lambda change rescales every p'.
  inst.set_lambda(0.7);
  check("lambda", {});
}

/// Reference projection over an ordered map: the first old occurrence of a
/// key wins, a match erases the key, and what is left over is dropped.
LpBasis ReferenceProjection(const LpBasis& old_basis,
                            const CompactLpKeys& old_keys,
                            const CompactLpKeys& new_keys,
                            BasisProjectionDelta* delta) {
  LpBasis projected;
  projected.structural.assign(new_keys.cols.size(),
                              VarBasisStatus::kNonbasicLower);
  projected.logical.assign(new_keys.rows.size(), VarBasisStatus::kBasic);
  *delta = BasisProjectionDelta{};
  std::map<uint64_t, VarBasisStatus> cols, rows;
  for (size_t j = 0; j < old_keys.cols.size(); ++j) {
    cols.emplace(old_keys.cols[j], old_basis.structural[j]);
  }
  for (size_t i = 0; i < old_keys.rows.size(); ++i) {
    rows.emplace(old_keys.rows[i], old_basis.logical[i]);
  }
  for (size_t j = 0; j < new_keys.cols.size(); ++j) {
    auto it = cols.find(new_keys.cols[j]);
    if (it == cols.end()) {
      ++delta->new_cols;
      continue;
    }
    projected.structural[j] = it->second;
    ++delta->surviving_cols;
    cols.erase(it);
  }
  for (size_t i = 0; i < new_keys.rows.size(); ++i) {
    auto it = rows.find(new_keys.rows[i]);
    if (it == rows.end()) {
      ++delta->new_rows;
      continue;
    }
    projected.logical[i] = it->second;
    rows.erase(it);
  }
  delta->dropped_cols = static_cast<int>(cols.size());
  delta->dropped_rows = static_cast<int>(rows.size());
  return projected;
}

TEST(BasisProjectionTest, MatchesMapReferenceAcrossShapeChanges) {
  SvgicInstance inst = RandomInstance(14, 20, 3, 0.5, 23);
  // The previous LP's keys and optimal basis, refreshed after each step.
  CompactLpKeys keys;
  LpBasis basis;
  auto solve = [&](CompactLpKeys* out_keys, LpBasis* out_basis) {
    CompactLpMap map;
    auto lp = BuildCompactLp(inst, &map);
    ASSERT_TRUE(lp.ok());
    auto sol = SolveLp(*lp);
    ASSERT_TRUE(sol.ok());
    *out_keys = BuildCompactLpKeys(inst, map, *lp);
    *out_basis = sol->basis;
  };
  auto check = [&](const char* step) {
    CompactLpKeys new_keys;
    LpBasis new_basis;
    solve(&new_keys, &new_basis);
    BasisProjectionDelta got, want;
    const LpBasis projected = ProjectCompactBasis(basis, keys, new_keys, &got);
    const LpBasis reference =
        ReferenceProjection(basis, keys, new_keys, &want);
    EXPECT_TRUE(projected.structural == reference.structural) << step;
    EXPECT_TRUE(projected.logical == reference.logical) << step;
    EXPECT_EQ(got.surviving_cols, want.surviving_cols) << step;
    EXPECT_EQ(got.new_cols, want.new_cols) << step;
    EXPECT_EQ(got.dropped_cols, want.dropped_cols) << step;
    EXPECT_EQ(got.new_rows, want.new_rows) << step;
    EXPECT_EQ(got.dropped_rows, want.dropped_rows) << step;
    keys = new_keys;
    basis = new_basis;
    return got;
  };
  solve(&keys, &basis);

  // A join with a friend and tau: new x and s columns and new entry rows.
  const UserId nu = inst.AddUser();
  ASSERT_TRUE(inst.AddFriendship(nu, 0).ok());
  inst.set_p(nu, 1, 0.9);
  inst.set_p(nu, 2, 0.4);
  inst.SetTauValue(inst.graph().FindEdge(nu, 0), 1, 0.6);
  inst.RefinalizePairs({nu, 0});
  const BasisProjectionDelta join = check("join");
  EXPECT_GT(join.new_cols, 0);
  EXPECT_GT(join.new_rows, 0);

  // A leave of a user with weighted pairs: its x and s columns and the
  // pairs' entry rows drop out.
  UserId leaver = -1;
  for (const FriendPair& pair : inst.pairs()) {
    if (!pair.weights.empty() && pair.u != nu && pair.v != nu) {
      leaver = pair.u;
      break;
    }
  }
  ASSERT_GE(leaver, 0);
  std::vector<UserId> dirty = {leaver};
  for (UserId v : inst.graph().OutNeighbors(leaver)) dirty.push_back(v);
  for (UserId v : inst.graph().InNeighbors(leaver)) dirty.push_back(v);
  inst.DeactivateUser(leaver);
  inst.RefinalizePairs(dirty);
  const BasisProjectionDelta leave = check("leave");
  EXPECT_GT(leave.dropped_cols, 0);
  EXPECT_GT(leave.dropped_rows, 0);

  // A retire of an item with LP columns: its x columns drop out.
  ItemId retired = -1;
  for (ItemId c = 0; c < inst.num_items() && retired < 0; ++c) {
    for (UserId u = 0; u < inst.num_users(); ++u) {
      if (inst.p(u, c) > 0.0) {
        retired = c;
        break;
      }
    }
  }
  ASSERT_GE(retired, 0);
  inst.RefinalizePairs(inst.RetireItem(retired));
  const BasisProjectionDelta retire = check("retire");
  EXPECT_GT(retire.dropped_cols, 0);
}

TEST(SessionManagerTest, ConcurrentSessionsMatchSerialReplay) {
  const int kSessions = 3;
  std::vector<SvgicInstance> bases;
  std::vector<CommandLog> logs;
  for (int i = 0; i < kSessions; ++i) {
    bases.push_back(RandomInstance(10, 16, 2, 0.5, 300 + i));
    EventStreamParams stream;
    stream.num_mutations = 20;
    stream.resolve_every = 5;
    stream.seed = 40 + i;
    logs.push_back(GenerateEventStream(bases.back(), stream));
  }

  // Serial reference.
  std::vector<double> serial_totals;
  std::vector<Configuration> serial_configs;
  for (int i = 0; i < kSessions; ++i) {
    SessionOptions options;
    options.seed = 1000 + i;
    Session session(bases[i], options);
    ResolveReport last;
    for (const SessionCommand& command : logs[i]) {
      auto outcome = session.Apply(command);
      ASSERT_TRUE(outcome.ok()) << outcome.status();
      if (outcome->resolved) last = outcome->report;
    }
    serial_totals.push_back(last.scaled_total);
    serial_configs.push_back(session.config());
  }

  // Concurrent replay must be bit-identical (per-session serialization +
  // session-seeded randomness; worker count must not matter).
  for (int workers : {1, 4}) {
    SessionManager manager(workers);
    std::vector<int> ids;
    for (int i = 0; i < kSessions; ++i) {
      SessionOptions options;
      options.seed = 1000 + i;
      ids.push_back(manager.CreateSession(bases[i], options));
    }
    // Each session's callbacks run on one drain task at a time, so every
    // session writes only its own slot.
    std::vector<std::vector<ResolveReport>> reports(kSessions);
    for (int i = 0; i < kSessions; ++i) {
      std::vector<ResolveReport>* into = &reports[i];
      auto collect = [into](const Status& status, const CommandOutcome& out) {
        if (status.ok() && out.resolved) into->push_back(out.report);
      };
      for (const SessionCommand& command : logs[i]) {
        ASSERT_TRUE(manager.Submit(ids[i], command, collect).ok());
      }
    }
    manager.Drain();
    ASSERT_TRUE(manager.FirstError().ok()) << manager.FirstError();
    for (int i = 0; i < kSessions; ++i) {
      ASSERT_FALSE(reports[i].empty());
      EXPECT_DOUBLE_EQ(reports[i].back().scaled_total, serial_totals[i])
          << "session " << i << " workers " << workers;
      const Configuration& config = manager.session(ids[i]).config();
      ASSERT_EQ(config.num_users(), serial_configs[i].num_users());
      for (UserId u = 0; u < config.num_users(); ++u) {
        for (SlotId s = 0; s < config.num_slots(); ++s) {
          EXPECT_EQ(config.At(u, s), serial_configs[i].At(u, s))
              << "session " << i << " unit (" << u << ", " << s << ")";
        }
      }
    }
  }
}

}  // namespace
}  // namespace savg
