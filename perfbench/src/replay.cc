// The traced in-process replay of serve-burst / serve-churn.
//
// Each session's seeded command stream (the same generator the serving
// loop uses, cut to a fixed number of rounds) goes through
// SessionManager::Submit -> Session::Apply one command at a time. Before
// every resolve the session's state is captured (Session::CaptureState) and,
// after the served resolve, the resolve's public calls are re-run on that
// copy, each timed on its own:
//
//   RefinalizePairs -> BuildCompactLp + BuildCompactLpKeys ->
//   ProjectCompactBasis -> SolveLp (LpStats) -> RunCsfSampling -> Evaluate
//
// The re-run must reproduce the served pivots, LP objective and scaled
// total bit for bit, so it measures the same work. The durability layer is
// driven directly: every applied command is appended with
// SessionJournal::Append and snapshots are taken with TakeSnapshot when the
// journal's count trigger fires, then each session is recovered with
// RecoveryManager::RecoverSession.
//
// The layered pass attaches a TraceContext to every command (queue-wait and
// apply spans) and re-runs the layers. Four more passes skip the re-runs and
// alternate traced and untraced (traced, untraced, untraced, traced, so a
// drift of the host's speed cancels out): tracing overhead is the median
// submit-to-completion time of their traced resolves minus that of their
// untraced ones. Every pass must produce the same exact counts.

#include <chrono>
#include <future>
#include <memory>

#include "core/csf.h"
#include "core/lp_formulation.h"
#include "core/objective.h"
#include "durability/recovery.h"
#include "durability/snapshot.h"
#include "online/basis_projection.h"
#include "online/session_manager.h"
#include "workloads.h"

namespace perfbench {

using savg::CommandOutcome;
using savg::CommandType;
using savg::ResolvePath;
using savg::ResolveReport;
using savg::SessionState;
using savg::Status;

namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

constexpr int kNumWorkers = 2;
constexpr int kRecoveryRepeats = 3;

// Replayed rounds per session: 128 warm resolves per session on
// serve-burst, two whole schedule periods (100 resolves) on serve-churn.
int ReplayRounds(Workload workload) {
  return workload == Workload::kServeBurst ? 16 : 2 * kChurnPeriodRounds;
}

// Exact counts of one pass; two passes over one seed must agree.
struct Counts {
  int64_t commands = 0;
  int64_t warm_resolves = 0;
  int64_t noop_resolves = 0;
  int64_t cold_fallbacks = 0;
  int64_t full_rerounds = 0;
  int64_t rerounded_units = 0;
  int64_t pivots = 0;
  int64_t refactorizations = 0;
  int64_t bytes_written = 0;

  bool operator==(const Counts& o) const {
    return commands == o.commands && warm_resolves == o.warm_resolves &&
           noop_resolves == o.noop_resolves &&
           cold_fallbacks == o.cold_fallbacks &&
           full_rerounds == o.full_rerounds &&
           rerounded_units == o.rerounded_units && pivots == o.pivots &&
           refactorizations == o.refactorizations &&
           bytes_written == o.bytes_written;
  }
};

// Per-layer timings of the re-run warm resolves.
struct Layers {
  std::vector<double> refinalize_ms, build_ms, projection_ms, csf_ms,
      evaluate_ms;
  std::vector<double> changed_fraction;
  double solve_ms_total = 0.0;
  savg::LpStats lp;  // summed over re-run solves
  double layer_ms_total = 0.0;
  double apply_ms_total = 0.0;
};

struct Pass {
  Counts counts;
  std::vector<double> wait_ms;            // admission.wait, every command
  std::vector<double> apply_ms;           // session.apply, warm resolves
  std::vector<double> roundtrip_ms;       // Submit to completion, warm resolves
  std::vector<double> append_us, snapshot_ms;
  Layers layers;
  std::vector<uint64_t> digests;          // live state per session
  int64_t mismatches = 0;
};

double SpanMillis(const savg::Trace& trace, const std::string& name) {
  for (const savg::TraceSpan& span : trace.spans) {
    if (span.name == name) return span.duration_nanos / 1e6;
  }
  return 0.0;
}

// Re-runs one resolve's public calls on a captured state (the monolithic
// path of Session::Resolve with the library's default options); returns
// whether the re-run reproduced the served answer.
bool RerunResolve(SessionState state, const ResolveReport& served,
                  const savg::SessionOptions& options, Layers* layers,
                  double apply_ms) {
  savg::SvgicInstance& instance = state.instance;
  std::vector<UserId> dirty;
  for (UserId u = 0; u < instance.num_users(); ++u) {
    if (state.all_dirty ||
        (u < static_cast<int>(state.dirty.size()) && state.dirty[u])) {
      dirty.push_back(u);
    }
  }
  Clock::time_point t = Clock::now();
  instance.RefinalizePairs(dirty);
  const double refinalize_ms = MillisSince(t);
  if (!instance.Validate().ok()) return false;

  t = Clock::now();
  savg::CompactLpMap map;
  auto lp = savg::BuildCompactLp(instance, &map);
  if (!lp.ok()) return false;
  savg::CompactLpKeys keys = savg::BuildCompactLpKeys(instance, map, *lp);
  const double build_ms = MillisSince(t);

  ResolvePath path = ResolvePath::kCold;
  savg::LpBasis projected;
  double projection_ms = 0.0;
  if (state.valid_basis) {
    t = Clock::now();
    savg::BasisProjectionDelta delta;
    projected =
        savg::ProjectCompactBasis(state.basis, state.keys, keys, &delta);
    projection_ms = MillisSince(t);
    if (layers != nullptr) {
      layers->changed_fraction.push_back(delta.ChangedFraction());
    }
    path = delta.ChangedFraction() <= options.cold_fraction_threshold
               ? ResolvePath::kIncremental
               : ResolvePath::kColdFallback;
  }

  t = Clock::now();
  auto sol = path == ResolvePath::kIncremental
                 ? savg::SolveLp(*lp, options.simplex, &projected)
                 : savg::SolveLp(*lp, options.simplex);
  if (!sol.ok() && path == ResolvePath::kIncremental) {
    path = ResolvePath::kColdFallback;
    sol = savg::SolveLp(*lp, options.simplex);
  }
  const double solve_ms = MillisSince(t);
  if (!sol.ok()) return false;

  // Fractional-solution extraction and supporter lists: the part of
  // session.apply the named layers leave uncovered.
  const int n = instance.num_users();
  const int m = instance.num_items();
  const int k = instance.num_slots();
  savg::FractionalSolution frac;
  frac.num_users = n;
  frac.num_items = m;
  frac.num_slots = k;
  frac.x.assign(static_cast<size_t>(n) * m, 0.0);
  for (UserId u = 0; u < n; ++u) {
    for (ItemId c = 0; c < m; ++c) {
      const int var = map.XVar(u, c, m);
      if (var >= 0) frac.x[static_cast<size_t>(u) * m + c] = sol->x[var];
    }
  }
  frac.lp_objective = sol->objective;
  frac.exact = true;
  frac.BuildSupporters(options.prune_tolerance);

  t = Clock::now();
  savg::CsfState csf(instance, frac, options.rounding.size_cap);
  if (path != ResolvePath::kCold && state.config.num_users() > 0) {
    std::vector<char> is_dirty(n, 0);
    for (UserId u : dirty) is_dirty[u] = 1;
    for (UserId u = 0; u < std::min(n, state.config.num_users()); ++u) {
      if (is_dirty[u]) continue;
      for (savg::SlotId s = 0; s < k; ++s) {
        const ItemId c = state.config.At(u, s);
        if (c == savg::kNoItem || c >= m) continue;
        (void)csf.AssignUnit(u, s, c);
      }
    }
  }
  savg::AvgOptions rounding = options.rounding;
  savg::Rng rng;
  rng.RestoreState(state.rng);
  rounding.seed = rng.Next();
  auto rounded = savg::RunCsfSampling(&csf, rounding);
  const double csf_ms = MillisSince(t);
  if (!rounded.ok()) return false;

  t = Clock::now();
  const double total =
      savg::Evaluate(instance, rounded->config).ScaledTotal();
  const double evaluate_ms = MillisSince(t);

  if (layers != nullptr) {
    layers->refinalize_ms.push_back(refinalize_ms);
    layers->build_ms.push_back(build_ms);
    if (state.valid_basis) layers->projection_ms.push_back(projection_ms);
    layers->csf_ms.push_back(csf_ms);
    layers->evaluate_ms.push_back(evaluate_ms);
    layers->solve_ms_total += solve_ms;
    layers->lp += sol->stats;
    layers->layer_ms_total += refinalize_ms + build_ms + projection_ms +
                              solve_ms + csf_ms + evaluate_ms;
    layers->apply_ms_total += apply_ms;
  }
  return path == served.path && sol->iterations == served.pivots &&
         sol->objective == served.lp_objective &&
         total == served.scaled_total;
}

// One replay pass over every session. `traced` attaches a TraceContext to
// each command; `layered` (which needs `traced`) also re-runs every
// resolve's layers.
Pass ReplayPass(const BenchArgs& args,
                const std::vector<savg::SvgicInstance>& instances,
                const std::string& data_dir, bool traced, bool layered,
                Report* report) {
  Pass pass;
  RemoveTree(data_dir);
  savg::SessionManagerOptions manager_options;
  manager_options.num_workers = kNumWorkers;
  savg::SessionManager manager(manager_options);
  savg::SessionStore store(DurabilityOptionsFor(args.workload, data_dir));

  for (size_t s = 0; s < instances.size(); ++s) {
    const savg::SessionOptions options =
        SessionOptionsFor(SessionSeed(args.seed, static_cast<int>(s)));
    const int id = manager.CreateSession(instances[s], options);
    auto journal = store.Attach(static_cast<uint32_t>(id),
                                manager.session(id));
    if (!journal.ok()) {
      report->Check(false, "journal attach: " + journal.status().ToString());
      return pass;
    }
    const std::string dir = store.SessionDir(static_cast<uint32_t>(id));
    pass.counts.bytes_written +=
        FileSize(dir + "/" + savg::SnapshotFileName(0));

    // The served stream: the cold first resolve, then the rounds.
    std::vector<savg::SessionCommand> commands{savg::MakeResolve()};
    std::vector<int64_t> expected_ids{-1};
    CommandStream stream(args.workload,
                         SessionSeed(args.seed, static_cast<int>(s)),
                         instances[s]);
    for (int r = 0; r < ReplayRounds(args.workload); ++r) {
      stream.NextRound(&commands, &expected_ids);
    }

    for (size_t i = 0; i < commands.size(); ++i) {
      const savg::SessionCommand& command = commands[i];
      const bool is_resolve = command.type == CommandType::kResolve;
      SessionState before;
      if (layered && is_resolve) before = manager.session(id).CaptureState();
      std::shared_ptr<savg::TraceContext> trace;
      if (traced) {
        trace = std::make_shared<savg::TraceContext>(i + 1, i + 1, id,
                                                     "replay");
      }
      const Clock::time_point submit = Clock::now();
      std::promise<void> done;
      Status status;
      CommandOutcome outcome;
      Status submitted = manager.Submit(
          id, command,
          [&](const Status& st, const CommandOutcome& out) {
            status = st;
            outcome = out;
            done.set_value();
          },
          trace);
      if (!submitted.ok()) {
        report->Check(false, "submit: " + submitted.ToString());
        return pass;
      }
      done.get_future().wait();
      const double roundtrip_ms = MillisSince(submit);
      manager.Drain();
      ++pass.counts.commands;
      report->AddAttempted(1);
      if (!status.ok()) {
        report->AddFailed(1);
        report->Check(false, "replayed command failed: " + status.ToString());
        continue;
      }
      if (expected_ids[i] >= 0 && outcome.assigned_id != expected_ids[i]) {
        report->Check(false, "replayed join/add-item got an unexpected id");
      }
      double apply_ms = 0.0;
      if (traced) {
        pass.wait_ms.push_back(SpanMillis(trace->trace(), "admission.wait"));
        apply_ms = SpanMillis(trace->trace(), "session.apply");
      }

      Clock::time_point t = Clock::now();
      Status appended = (*journal)->Append(command, outcome.resolved);
      pass.append_us.push_back(MillisSince(t) * 1e3);
      report->Check(appended.ok(), "journal append: " + appended.ToString());
      if ((*journal)->ShouldSnapshot()) {
        pass.counts.bytes_written +=
            FileSize(dir + "/" + savg::ChangelogFileName((*journal)->epoch()));
        t = Clock::now();
        Status snap = (*journal)->TakeSnapshot(manager.session(id));
        pass.snapshot_ms.push_back(MillisSince(t));
        report->Check(snap.ok(), "snapshot: " + snap.ToString());
        pass.counts.bytes_written +=
            FileSize(dir + "/" + savg::SnapshotFileName((*journal)->epoch()));
      }

      if (!is_resolve) continue;
      const ResolveReport& served = outcome.report;
      const bool warm = i > 0;
      if (warm) {
        ++pass.counts.warm_resolves;
        if (served.num_dirty_users == 0) ++pass.counts.noop_resolves;
        if (served.path == ResolvePath::kColdFallback) {
          ++pass.counts.cold_fallbacks;
        }
        if (served.full_reround) ++pass.counts.full_rerounds;
        pass.counts.rerounded_units += served.rerounded_units;
        pass.counts.pivots += served.pivots;
        pass.counts.refactorizations += served.refactorizations;
        pass.roundtrip_ms.push_back(roundtrip_ms);
        if (layered) pass.apply_ms.push_back(apply_ms);
      }
      if (layered &&
          !RerunResolve(std::move(before), served, options,
                        warm ? &pass.layers : nullptr, apply_ms)) {
        ++pass.mismatches;
      }
    }
    pass.counts.bytes_written +=
        FileSize(dir + "/" + savg::ChangelogFileName((*journal)->epoch()));
    pass.digests.push_back(
        savg::SessionStateDigest(manager.session(id).CaptureState()));
  }
  return pass;
}

double Mean(double total, int64_t count) {
  return count > 0 ? total / static_cast<double>(count) : 0.0;
}

}  // namespace

void RunReplay(const BenchArgs& args, Report* report) {
  std::vector<savg::SvgicInstance> instances;
  std::vector<double> datagen_ms;
  for (const InstanceSpec& spec : ServeSessionSpecs()) {
    const Clock::time_point t = Clock::now();
    auto instance = GenerateInstance(spec);
    datagen_ms.push_back(MillisSince(t));
    if (!instance.ok()) {
      report->Check(false, "datagen: " + instance.status().ToString());
      return;
    }
    instances.push_back(std::move(*instance));
  }

  const std::string traced_dir = args.data_dir + "/replay-traced";
  const std::string other_dir = args.data_dir + "/replay-other";
  const Pass traced =
      ReplayPass(args, instances, traced_dir, true, true, report);
  report->Check(traced.mismatches == 0,
                std::to_string(traced.mismatches) +
                    " re-run resolves did not reproduce the served pivots, "
                    "LP objective and scaled total");

  // Tracing overhead: passes without layer re-runs, in ABBA order.
  std::vector<double> traced_ms, untraced_ms;
  for (bool with_trace : {true, false, false, true}) {
    const Pass pass =
        ReplayPass(args, instances, other_dir, with_trace, false, report);
    RemoveTree(other_dir);
    report->Check(pass.counts == traced.counts,
                  "exact counts differ between two replays of one seed");
    report->Check(pass.digests == traced.digests,
                  "final session digests differ between two replays");
    std::vector<double>& into = with_trace ? traced_ms : untraced_ms;
    into.insert(into.end(), pass.roundtrip_ms.begin(),
                pass.roundtrip_ms.end());
  }

  // Warm recovery of the traced replay's sessions.
  std::vector<double> recovery_ms;
  int64_t replayed = 0;
  for (size_t s = 0; s < instances.size(); ++s) {
    savg::RecoveryManager recovery(
        traced_dir,
        SessionOptionsFor(SessionSeed(args.seed, static_cast<int>(s))));
    std::vector<double> times;
    for (int rep = 0; rep < kRecoveryRepeats; ++rep) {
      const Clock::time_point t = Clock::now();
      auto recovered = recovery.RecoverSession(static_cast<uint32_t>(s));
      times.push_back(MillisSince(t));
      if (!recovered.ok()) {
        report->Check(false,
                      "replay recovery: " + recovered.status().ToString());
        break;
      }
      report->Check(
          s < traced.digests.size() &&
              savg::SessionStateDigest(recovered->session->CaptureState()) ==
                  traced.digests[s],
          "recovered replay digest differs from the live session");
      if (rep == 0) {
        replayed += static_cast<int64_t>(recovered->replayed_commands);
      }
    }
    recovery_ms.push_back(Median(times));
  }
  RemoveTree(traced_dir);

  const Counts& c = traced.counts;
  const Layers& l = traced.layers;
  const int64_t solves = c.warm_resolves;
  report->AddTiming("session_manager.wait_ms", Summarize(traced.wait_ms), "ms");
  report->AddTiming("session.apply_ms", Summarize(traced.apply_ms), "ms");
  report->Add("session.resolves", static_cast<double>(c.warm_resolves), "count",
              "warm resolves replayed (the cold first resolves excluded)");
  report->Add("session.noop_resolves", static_cast<double>(c.noop_resolves),
              "count", "warm resolves with zero dirty users");
  report->Add("session.noop_share",
              Mean(static_cast<double>(c.noop_resolves), c.warm_resolves),
              "share",
              std::to_string(c.noop_resolves) + " / " +
                  std::to_string(c.warm_resolves) + " warm resolves");
  report->Add("session.cold_fallbacks", static_cast<double>(c.cold_fallbacks),
              "count");
  report->Add("session.full_rerounds", static_cast<double>(c.full_rerounds),
              "count");
  report->AddTiming("pairs.refinalize_ms", Summarize(l.refinalize_ms), "ms");
  report->AddTiming("projection.ms", Summarize(l.projection_ms), "ms");
  double changed = 0.0;
  for (double f : l.changed_fraction) changed += f;
  report->Add("projection.changed_fraction",
              Mean(changed, static_cast<int64_t>(l.changed_fraction.size())),
              "share",
              "mean over " + std::to_string(l.changed_fraction.size()) +
                  " projections");
  report->AddTiming("lp.build_ms", Summarize(l.build_ms), "ms");
  report->Add("lp.solves", static_cast<double>(solves), "count");
  report->Add("lp.solve_ms", Mean(l.solve_ms_total, solves), "ms",
              "mean per warm solve");
  report->Add("lp.factor_ms", Mean(l.lp.factor_seconds * 1e3, solves), "ms",
              "mean per warm solve");
  report->Add("lp.factor_share",
              l.solve_ms_total > 0
                  ? l.lp.factor_seconds * 1e3 / l.solve_ms_total
                  : 0.0,
              "share",
              Fmt(l.lp.factor_seconds * 1e3, 1) + " ms factor / " +
                  Fmt(l.solve_ms_total, 1) + " ms solve");
  report->Add("lp.pricing_ms", Mean(l.lp.pricing_seconds * 1e3, solves), "ms");
  report->Add("lp.ftran_ms", Mean(l.lp.ftran_seconds * 1e3, solves), "ms");
  report->Add("lp.btran_ms", Mean(l.lp.btran_seconds * 1e3, solves), "ms");
  report->Add("lp.ratio_test_ms", Mean(l.lp.ratio_test_seconds * 1e3, solves),
              "ms");
  report->Add("lp.presolve_ms", Mean(l.lp.presolve_seconds * 1e3, solves),
              "ms");
  report->Add("lp.pivots", static_cast<double>(c.pivots), "count",
              "over " + std::to_string(solves) + " warm solves");
  report->Add("lp.refactorizations", static_cast<double>(c.refactorizations),
              "count", "over " + std::to_string(solves) + " warm solves");
  report->AddTiming("csf.round_ms", Summarize(l.csf_ms), "ms");
  report->Add("csf.rerounded_units", static_cast<double>(c.rerounded_units),
              "count");
  report->AddTiming("objective.evaluate_ms", Summarize(l.evaluate_ms), "ms");
  report->Add("layer_coverage",
              l.apply_ms_total > 0 ? l.layer_ms_total / l.apply_ms_total : 0.0,
              "share",
              Fmt(l.layer_ms_total, 1) + " ms in replayed layers / " +
                  Fmt(l.apply_ms_total, 1) +
                  " ms session.apply; gap: Validate, fractional-solution "
                  "extraction + BuildSupporters, served-state commit");
  report->AddTiming("journal.append_us", Summarize(traced.append_us), "us");
  report->AddTiming("snapshot.write_ms", Summarize(traced.snapshot_ms), "ms");
  report->Add("durability.bytes_written", static_cast<double>(c.bytes_written),
              "bytes", "changelogs + snapshots");
  report->Add("recovery.replayed", static_cast<double>(replayed), "count",
              "commands replayed by warm recovery, all sessions");
  double recovery_total = 0.0;
  for (double ms : recovery_ms) recovery_total += ms;
  report->Add("recovery.replay_ms", recovery_total, "ms",
              "sum over sessions of the median of " +
                  std::to_string(kRecoveryRepeats));
  report->AddTiming("datagen.ms", Summarize(datagen_ms), "ms");
  report->Add("replay.commands", static_cast<double>(c.commands), "count");
  report->Add("trace.overhead_ms", Median(traced_ms) - Median(untraced_ms),
              "ms",
              "median warm-resolve submit-to-completion, traced minus "
              "untraced, over " +
                  std::to_string(traced_ms.size()) + " + " +
                  std::to_string(untraced_ms.size()) +
                  " resolves of alternating passes without layer re-runs");
}

}  // namespace perfbench
