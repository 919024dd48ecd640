// Tests of the sharded solve subsystem (src/shard/): plan determinism and
// sanity, the dual-coordination equivalence guarantee (AVG-SHARD's
// stitched relaxation within the reported gap of the monolithic compact
// LP), worker-count determinism, and the sharded serving path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/avg.h"
#include "core/csf.h"
#include "core/lp_formulation.h"
#include "core/objective.h"
#include "datagen/datasets.h"
#include "durability/snapshot.h"
#include "online/session.h"
#include "shard/shard_plan.h"
#include "shard/shard_solve.h"
#include "solvers/solver_options.h"
#include "solvers/solver_registry.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace savg {
namespace {

SvgicInstance RandomInstance(DatasetKind kind, int n, int m, int k,
                             uint64_t seed) {
  DatasetParams params;
  params.kind = kind;
  params.num_users = n;
  params.num_items = m;
  params.num_slots = k;
  params.lambda = 0.5;
  params.seed = seed;
  params.universe_users = 4 * n + 20;
  auto inst = GenerateDataset(params);
  EXPECT_TRUE(inst.ok()) << inst.status();
  return std::move(inst).value();
}

bool SamePlan(const ShardPlan& a, const ShardPlan& b) {
  return a.shard_of == b.shard_of && a.users == b.users &&
         a.cut_pairs == b.cut_pairs;
}

bool SameConfig(const Configuration& a, const Configuration& b) {
  if (a.num_users() != b.num_users() || a.num_slots() != b.num_slots()) {
    return false;
  }
  for (UserId u = 0; u < a.num_users(); ++u) {
    for (SlotId s = 0; s < a.num_slots(); ++s) {
      if (a.At(u, s) != b.At(u, s)) return false;
    }
  }
  return true;
}

TEST(ShardPlanTest, DeterministicForFixedSeed) {
  const SvgicInstance inst = RandomInstance(DatasetKind::kYelp, 48, 24, 3, 5);
  // 4 shards take the community merge; one shard per user takes the
  // seeded balanced BFS partition of the whole graph.
  for (int num_shards : {4, inst.num_users()}) {
    ShardPlanOptions options;
    options.num_shards = num_shards;
    options.seed = 11;
    const ShardPlan a = BuildShardPlan(inst, options);
    const ShardPlan b = BuildShardPlan(inst, options);
    EXPECT_TRUE(SamePlan(a, b)) << num_shards << " shards";
    EXPECT_EQ(a.num_shards(), num_shards);
  }
}

TEST(ShardPlanTest, CoversAllUsersAndClassifiesCutPairs) {
  const SvgicInstance inst = RandomInstance(DatasetKind::kTimik, 40, 20, 3, 3);
  ShardPlanOptions options;
  options.num_shards = 4;
  const ShardPlan plan = BuildShardPlan(inst, options);
  ASSERT_EQ(static_cast<int>(plan.shard_of.size()), inst.num_users());
  std::vector<int> seen(inst.num_users(), 0);
  for (int s = 0; s < plan.num_shards(); ++s) {
    for (UserId u : plan.users[s]) {
      EXPECT_EQ(plan.shard_of[u], s);
      ++seen[u];
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](int count) { return count == 1; }));
  // Every weighted pair is either intra-shard or listed as cut.
  std::vector<char> is_cut(inst.pairs().size(), 0);
  for (int pi : plan.cut_pairs) is_cut[pi] = 1;
  for (size_t pi = 0; pi < inst.pairs().size(); ++pi) {
    const FriendPair& pair = inst.pairs()[pi];
    if (pair.weights.empty()) continue;
    const bool crossing = plan.shard_of[pair.u] != plan.shard_of[pair.v];
    EXPECT_EQ(crossing, static_cast<bool>(is_cut[pi]));
    if (crossing) {
      EXPECT_TRUE(plan.boundary[pair.u]);
      EXPECT_TRUE(plan.boundary[pair.v]);
    }
  }
  EXPECT_GT(plan.stats.max_size, 0);
  EXPECT_LE(plan.stats.min_size, plan.stats.max_size);
}

TEST(ShardPlanTest, AbsorbNewUsersKeepsShardsBalanced) {
  const SvgicInstance inst = RandomInstance(DatasetKind::kYelp, 30, 16, 3, 9);
  ShardPlanOptions options;
  options.num_shards = 3;
  ShardPlan plan = BuildShardPlan(inst, options);
  const std::vector<int> grown = plan.AbsorbNewUsers(36);
  EXPECT_FALSE(grown.empty());
  EXPECT_EQ(static_cast<int>(plan.shard_of.size()), 36);
  int total = 0;
  for (const auto& members : plan.users) {
    total += static_cast<int>(members.size());
  }
  EXPECT_EQ(total, 36);
}

// The rigorous equivalence property: with exact per-shard solves, the dual
// bound D dominates the monolithic compact-LP optimum, the stitched primal
// P is feasible (P <= OPT), and the coordinator stops with
// (D - P)/max(1, D) <= gap. Hence P is within `gap` of OPT:
//   (OPT - P) / OPT <= (D - P) / OPT ~ gap.
TEST(ShardSolveTest, StitchedRelaxationWithinGapOfMonolithicLp) {
  for (uint64_t seed : {2, 5, 8}) {
    const SvgicInstance inst =
        RandomInstance(DatasetKind::kYelp, 32, 16, 3, seed);
    RelaxationOptions exact;
    exact.method = RelaxationMethod::kSimplex;
    auto mono = SolveRelaxation(inst, exact);
    ASSERT_TRUE(mono.ok()) << mono.status();

    ShardSolveOptions options;
    options.plan.num_shards = 4;
    options.relaxation.method = RelaxationMethod::kSimplex;
    options.gap_tolerance = 0.01;
    options.max_dual_rounds = 30;
    auto sharded = SolveSharded(inst, options);
    ASSERT_TRUE(sharded.ok()) << sharded.status();
    const ShardSolveStats& stats = sharded->stats;

    constexpr double kEps = 1e-6;
    EXPECT_GE(stats.dual_bound, mono->lp_objective - kEps) << "seed " << seed;
    EXPECT_LE(stats.primal_objective, mono->lp_objective + kEps)
        << "seed " << seed;
    EXPECT_GE(stats.primal_objective,
              (1.0 - stats.gap) * mono->lp_objective - kEps)
        << "seed " << seed << " gap " << stats.gap;
    EXPECT_TRUE(sharded->config.IsComplete());
    EXPECT_TRUE(sharded->config.CheckValid().ok());
  }
}

// End-to-end: AVG-SHARD's rounded objective stays close to monolithic
// AVG's on random instances (both are randomized roundings of
// near-identical relaxations, so a generous band guards against seed
// variance, not against systematic loss).
TEST(ShardSolveTest, RoundedObjectiveCloseToMonolithicAvg) {
  auto avg = SolverRegistry::Global().Find("AVG");
  auto avg_shard = SolverRegistry::Global().Find("AVG-SHARD");
  ASSERT_TRUE(avg.ok());
  ASSERT_TRUE(avg_shard.ok());
  SolverOptions options;
  options.shard.plan.num_shards = 3;
  for (uint64_t seed : {3, 7}) {
    const SvgicInstance inst =
        RandomInstance(DatasetKind::kYelp, 30, 18, 3, seed);
    SolverContext context;
    context.options = &options;
    context.seed = 1000 + seed;
    auto mono = (*avg)->Solve(inst, context);
    auto sharded = (*avg_shard)->Solve(inst, context);
    ASSERT_TRUE(mono.ok()) << mono.status();
    ASSERT_TRUE(sharded.ok()) << sharded.status();
    EXPECT_GE(sharded->scaled_total, 0.92 * mono->scaled_total)
        << "seed " << seed;
  }
}

TEST(ShardSolveTest, BitIdenticalAcrossWorkerCounts) {
  const SvgicInstance inst = RandomInstance(DatasetKind::kTimik, 36, 20, 3, 4);
  ShardSolveOptions options;
  options.plan.num_shards = 4;
  options.seed = 21;
  ShardSolveResult reference;
  for (int workers : {1, 2, 4}) {
    options.num_workers = workers;
    auto result = SolveSharded(inst, options);
    ASSERT_TRUE(result.ok()) << result.status();
    if (workers == 1) {
      reference = std::move(result).value();
      continue;
    }
    EXPECT_TRUE(SameConfig(reference.config, result->config))
        << "workers=" << workers;
    ASSERT_EQ(reference.frac.x.size(), result->frac.x.size());
    for (size_t i = 0; i < reference.frac.x.size(); ++i) {
      ASSERT_EQ(reference.frac.x[i], result->frac.x[i]) << "x[" << i << "]";
    }
  }
}

// Regression: a shape change (user joined) rebuilds the stitched x
// buffer, and only dirty shards re-solve afterwards — the clean shards'
// cached rows must be re-stitched, not silently zeroed.
TEST(ShardSolveTest, RefreshPreservesCleanShardRowsAcrossReshape) {
  SvgicInstance inst = RandomInstance(DatasetKind::kYelp, 30, 16, 3, 12);
  ShardSolveOptions options;
  options.plan.num_shards = 3;
  ShardCoordinator coordinator(&inst, options);
  ASSERT_TRUE(coordinator.Build().ok());
  ThreadPool pool(2);
  ShardSolveStats stats;
  ASSERT_TRUE(coordinator.SolveFractional(&pool, &stats).ok());

  const std::vector<double> before = coordinator.frac().x;

  const UserId joined = inst.AddUser();
  inst.set_p(joined, 0, 0.9);
  inst.RefinalizePairs({joined});
  ASSERT_TRUE(coordinator.Refresh({joined}).ok());
  ShardSolveStats stats2;
  ASSERT_TRUE(coordinator.SolveFractional(&pool, &stats2).ok());
  EXPECT_LT(stats2.dirty_shards, 3);
  const FractionalSolution& frac = coordinator.frac();
  ASSERT_EQ(frac.num_users, 31);
  // Users of shards that did not re-solve must keep their exact rows
  // (the bug zeroed them when the stitched buffer was re-shaped).
  std::vector<char> resolved(coordinator.num_shards(), 0);
  for (int s : coordinator.LastResolvedShards()) resolved[s] = 1;
  int untouched_users = 0;
  const int m = frac.num_items;
  for (UserId u = 0; u < 30; ++u) {
    if (resolved[coordinator.plan().shard_of[u]]) continue;
    ++untouched_users;
    for (ItemId c = 0; c < m; ++c) {
      ASSERT_EQ(frac.XCompact(u, c), before[static_cast<size_t>(u) * m + c])
          << "user " << u;
    }
  }
  EXPECT_GT(untouched_users, 0);
}

TEST(ShardSolveTest, RejectsLambdaEndpoints) {
  SvgicInstance inst = RandomInstance(DatasetKind::kYelp, 12, 8, 2, 2);
  inst.set_lambda(1.0);
  ShardSolveOptions options;
  auto result = SolveSharded(inst, options);
  EXPECT_FALSE(result.ok());
}

// The AVG-SHARD adapter must still serve the lambda endpoints (it falls
// back to the monolithic AVG pipeline there).
TEST(ShardSolveTest, AdapterFallsBackAtLambdaOne) {
  SvgicInstance inst = RandomInstance(DatasetKind::kYelp, 12, 8, 2, 2);
  inst.set_lambda(1.0);
  auto solver = SolverRegistry::Global().Find("AVG-SHARD");
  ASSERT_TRUE(solver.ok());
  auto run = (*solver)->Solve(inst, SolverContext{});
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->config.IsComplete());
}

TEST(ShardedSessionTest, OnlyDirtyShardsResolve) {
  SessionOptions options;
  options.use_sharding = true;
  options.sharding.plan.num_shards = 4;
  options.seed = 13;
  Session session(RandomInstance(DatasetKind::kYelp, 40, 20, 3, 6), options);
  auto first = session.Resolve();
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->path, ResolvePath::kCold);
  EXPECT_EQ(first->num_shards, 4);
  EXPECT_EQ(first->num_dirty_shards, 4);
  EXPECT_TRUE(session.config().IsComplete());
  EXPECT_TRUE(session.config().CheckValid().ok());

  // One user's preference change must touch exactly one shard; the
  // rounding still covers every unit.
  ASSERT_TRUE(session.Apply(MakePref(3, 5, 0.9)).ok());
  auto second = session.Resolve();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->path, ResolvePath::kIncremental);
  EXPECT_EQ(second->num_dirty_shards, 1);
  EXPECT_EQ(second->rerounded_units,
            session.instance().num_users() * session.instance().num_slots());
  EXPECT_TRUE(session.config().IsComplete());
  EXPECT_GT(second->scaled_total, 0.0);
}

TEST(ShardedSessionTest, ServedConfigurationIsOneGlobalCsfPass) {
  // A coordinator over a mirror of the session's instance takes the same
  // refreshes and solves. After every resolve the session serves exactly
  // RunCsfSampling over that coordinator's stitched relaxation, seeded as
  // Round() derives it from the session's rounding-seed draw: clean shards
  // keep their LP solutions, but no unit keeps its previous item.
  const SvgicInstance base = RandomInstance(DatasetKind::kYelp, 40, 20, 3, 6);
  SessionOptions options;
  options.use_sharding = true;
  options.sharding.plan.num_shards = 4;
  options.seed = 13;
  Session session(base, options);

  SvgicInstance mirror = base;
  mirror.FinalizePairs();
  ShardSolveOptions sharding = options.sharding;
  sharding.rounding = options.rounding;
  ShardCoordinator coordinator(&mirror, sharding);
  ThreadPool pool(2);
  Rng draws(options.seed);
  const std::vector<SessionCommand> edits = {
      MakePref(3, 5, 0.9), MakePref(17, 2, 0.4), MakePref(30, 11, 0.7)};
  for (size_t step = 0; step <= edits.size(); ++step) {
    std::vector<UserId> dirty;
    if (step > 0) {
      const SessionCommand& edit = edits[step - 1];
      ASSERT_TRUE(session.Apply(edit).ok());
      mirror.set_p(edit.u, edit.c, edit.value);
      dirty.push_back(edit.u);
    }
    auto report = session.Resolve();
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->rerounded_units,
              mirror.num_users() * mirror.num_slots());

    mirror.RefinalizePairs(dirty);
    ASSERT_TRUE(step == 0 ? coordinator.Build().ok()
                          : coordinator.Refresh(dirty).ok());
    ShardSolveStats stats;
    ASSERT_TRUE(coordinator.SolveFractional(&pool, &stats).ok());
    EXPECT_EQ(report->lp_objective, stats.primal_objective);
    AvgOptions rounding = options.rounding;
    uint64_t mix = draws.Next() + 0x9E3779B97F4A7C15ULL * 0x6106a1ULL;
    rounding.seed = SplitMix64(&mix) | 1;
    CsfState state(mirror, coordinator.frac(), rounding.size_cap);
    auto rounded = RunCsfSampling(&state, rounding);
    ASSERT_TRUE(rounded.ok()) << rounded.status();
    EXPECT_TRUE(SameConfig(session.config(), rounded->config))
        << "resolve " << step;
  }
}

TEST(ShardedSessionTest, ReplayIsIdenticalAcrossWorkerCounts) {
  const SvgicInstance base = RandomInstance(DatasetKind::kYelp, 32, 16, 3, 8);
  auto replay = [&](int workers) {
    SessionOptions options;
    options.use_sharding = true;
    options.sharding.plan.num_shards = 4;
    options.sharding.num_workers = workers;
    options.seed = 77;
    Session session(base, options);
    EXPECT_TRUE(session.Resolve().ok());
    EXPECT_TRUE(session.Apply(MakePref(1, 2, 0.8)).ok());
    EXPECT_TRUE(session.Apply(MakeTau(0, 9, 3, 0.6)).ok());
    EXPECT_TRUE(session.Resolve().ok());
    EXPECT_TRUE(session.Apply(MakeJoin()).ok());
    EXPECT_TRUE(session.Apply(MakePref(32, 1, 0.7)).ok());
    EXPECT_TRUE(session.Resolve().ok());
    return session.config();
  };
  const Configuration serial = replay(1);
  const Configuration parallel = replay(4);
  EXPECT_TRUE(SameConfig(serial, parallel));
}

TEST(ShardedSessionTest, StructuralMutationsStayConsistent) {
  SessionOptions options;
  options.use_sharding = true;
  options.sharding.plan.num_shards = 3;
  Session session(RandomInstance(DatasetKind::kTimik, 24, 12, 3, 10),
                  options);
  ASSERT_TRUE(session.Resolve().ok());
  // Join, befriend across shards, retire an item, add one — each resolve
  // must stay complete and valid.
  auto joined = session.Apply(MakeJoin());
  ASSERT_TRUE(joined.ok());
  const UserId user = static_cast<UserId>(joined->assigned_id);
  ASSERT_TRUE(session.Apply(MakePref(user, 0, 0.5)).ok());
  ASSERT_TRUE(session.Apply(MakeTau(user, 0, 1, 0.4)).ok());
  auto report = session.Resolve();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(session.config().IsComplete());

  ASSERT_TRUE(session.Apply(MakeRetireItem(2)).ok());
  auto added = session.Apply(MakeAddItem());
  ASSERT_TRUE(added.ok());
  const ItemId item = static_cast<ItemId>(added->assigned_id);
  ASSERT_TRUE(session.Apply(MakePref(3, item, 0.9)).ok());
  report = session.Resolve();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(session.config().IsComplete());
  EXPECT_TRUE(session.config().CheckValid().ok());
  EXPECT_GT(report->scaled_total, 0.0);
}

// Pins every resolve's scaled_total and lp_objective bits, and the final
// state digest, of a sharded session driven by a seeded event stream and
// then by tau-to-zero edits (which leave zero-valued tau entries on the
// parent's edges), so a change to how shards are extracted or seeded
// cannot move any served answer.
TEST(ShardedSessionTest, ResolveBitsArePinned) {
  SvgicInstance base = RandomInstance(DatasetKind::kTimik, 30, 20, 3, 12);
  EventStreamParams events;
  events.num_mutations = 120;
  events.seed = 4;
  const CommandLog stream = GenerateEventStream(base, events);
  SessionOptions options;
  options.use_sharding = true;
  options.sharding.plan.num_shards = 3;
  options.seed = 21;
  Session session(std::move(base), options);

  uint64_t hash = 1469598103934665603ull;  // FNV-1a 64 over the bits
  int resolves = 0, sharded = 0;
  auto apply = [&](const SessionCommand& command) {
    auto outcome = session.Apply(command);
    ASSERT_TRUE(outcome.ok())
        << CommandTypeName(command.type) << ": " << outcome.status();
    if (!outcome->resolved) return;
    ++resolves;
    sharded += outcome->report.num_shards == 3;
    for (double value :
         {outcome->report.scaled_total, outcome->report.lp_objective}) {
      uint64_t bits = 0;
      std::memcpy(&bits, &value, sizeof(bits));
      for (int byte = 0; byte < 8; ++byte) {
        hash ^= (bits >> (8 * byte)) & 0xff;
        hash *= 1099511628211ull;
      }
    }
  };
  apply(MakeResolve());
  for (const SessionCommand& command : stream) apply(command);

  // Zero the first 20 positive tau entries in edge order, resolving after
  // every fifth edit.
  std::vector<SessionCommand> zeroes;
  const SvgicInstance& live = session.instance();
  for (const Edge& e : live.graph().edges()) {
    for (const ItemValue& iv : live.TauEntries(e.id)) {
      if (iv.value > 0.0f && zeroes.size() < 20) {
        zeroes.push_back(MakeTau(e.u, e.v, iv.item, 0.0));
      }
    }
  }
  ASSERT_EQ(zeroes.size(), 20u);
  for (size_t i = 0; i < zeroes.size(); ++i) {
    apply(zeroes[i]);
    if (i % 5 == 4) apply(MakeResolve());
  }
  EXPECT_EQ(resolves, 29);
  EXPECT_EQ(sharded, 29);
  EXPECT_EQ(hash, 0xb8bb5890efbde7c7ull);
  // The digest covers the encoded state, version field included.
  EXPECT_EQ(SessionStateDigest(session.CaptureState()), 0x8560de3eb388d80eull);
}

}  // namespace
}  // namespace savg
