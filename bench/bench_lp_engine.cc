// LP engine microbench: the hot configurations of the simplex on
// fig8-scale compact LPs (Yelp n=40, k=10 — the m=10000 point is the
// largest bench_fig8_scalability instance).
//
//  1. Cold pricing — full-Devex (score every column every pivot) vs the
//     candidate-list partial pricing that is now the default. The
//     "pricing share" column is LpStats::pricing_seconds over the whole
//     solve: the quantity the ROADMAP said should decide the partial-
//     pricing question, reported per mode in the --json= artifact.
//  2. Warm repair — branch-and-bound-child one-bound changes and
//     serving-style item bans re-solved from the parent-optimal basis.
//     Both leave that basis dual-feasible, so SolveLp repairs its primal
//     infeasibility with the dual simplex (dual Devex rows). The
//     "(dual-warm)" pivot totals feed a fixed CI pivot ceiling, pivot
//     counts being machine-speed-free.
//  3. Ban waves — the same dual repairs with eight items pulled at once
//     (the storefront-refresh shape), the many-violation state where the
//     dual Devex row rule matters; the "(devex-rows)" pivot total feeds a
//     second CI pivot ceiling.
//  4. Eta-file management — a long serving-style mutation stream
//     (>= 2000 warm resolves with periodic cold re-solves) under the
//     adaptive refactorization policy vs a fixed interval vs no
//     refactorization at all. The adaptive policy's work counters keep
//     the eta chain — and with it the ftran/btran cost per pivot —
//     bounded, where the unmanaged chain grows with the solve length.
//
// Cold objectives are cross-checked between the pricing modes and every
// warm repair is KKT-audited (lp/kkt.h); a failure prints loudly (the
// tests in lp_test.cc enforce both).

#include <cmath>
#include <deque>
#include <map>
#include <vector>

#include "bench_util.h"
#include "core/lp_formulation.h"
#include "lp/kkt.h"
#include "util/random.h"

namespace savg {
namespace {

DatasetParams EngineParams(int m) {
  DatasetParams params;
  params.kind = DatasetKind::kYelp;
  params.num_users = 40;
  params.num_items = m;
  params.num_slots = 10;
  params.seed = 8;
  return params;
}

/// The two compact-LP sizes every section runs on.
constexpr int kSmallM = 2000;
constexpr int kLargeM = 10000;

Result<LpModel> BuildEngineLp(int m) {
  auto inst = GenerateDataset(EngineParams(m));
  if (!inst.ok()) return inst.status();
  CompactLpMap map;
  return BuildCompactLp(*inst, &map);
}

const char* PricingName(PricingMode mode) {
  return mode == PricingMode::kPartial ? "partial" : "full devex";
}

struct ColdRun {
  LpSolution sol;
  bool ok = false;
};

ColdRun SolveCold(const LpModel& lp, PricingMode mode) {
  SimplexOptions options;
  options.pricing = mode;
  ColdRun run;
  auto sol = SolveLp(lp, options);
  if (!sol.ok()) {
    std::cerr << "cold solve (" << PricingName(mode)
              << ") failed: " << sol.status() << "\n";
    return run;
  }
  run.sol = std::move(sol).value();
  run.ok = true;
  return run;
}

bool ObjectivesMatch(double a, double b) {
  return std::abs(a - b) <= 1e-6 * std::max(1.0, std::abs(a));
}

/// Section 1: cold full-Devex vs partial pricing per compact-LP size.
/// Returns the per-m partial-pricing solutions (reused as the warm-repair
/// parent).
std::map<int, ColdRun> PrintPricingComparison(
    const std::map<int, LpModel>& lps) {
  Table t({"m", "mode", "pivots", "solve (s)", "pricing (s)",
           "pricing share", "cand hits", "full scans"});
  std::map<int, ColdRun> partial_runs;
  for (const auto& [m, lp] : lps) {
    double objectives[2] = {0.0, 0.0};
    int mode_index = 0;
    for (PricingMode mode : {PricingMode::kFullDevex, PricingMode::kPartial}) {
      ColdRun run = SolveCold(lp, mode);
      if (!run.ok) continue;
      const LpSolution& sol = run.sol;
      const double share =
          sol.solve_seconds > 0 ? sol.stats.pricing_seconds / sol.solve_seconds
                                : 0.0;
      objectives[mode_index++] = sol.objective;
      t.NewRow()
          .Add(static_cast<int64_t>(m))
          .Add(PricingName(mode))
          .Add(static_cast<int64_t>(sol.iterations))
          .Add(FormatDouble(sol.solve_seconds, 3))
          .Add(FormatDouble(sol.stats.pricing_seconds, 3))
          .Add(FormatPercent(share))
          .Add(sol.stats.candidate_hits)
          .Add(sol.stats.full_pricing_scans);
      const std::string prefix =
          "lp engine | m=" + std::to_string(m) + " cold ";
      benchutil::RecordMetric(prefix + "solve seconds - " + PricingName(mode),
                              sol.solve_seconds);
      benchutil::RecordMetric(
          prefix + "pricing seconds - " + PricingName(mode),
          sol.stats.pricing_seconds);
      benchutil::RecordMetric(prefix + "pricing share - " + PricingName(mode),
                              share);
      if (mode == PricingMode::kPartial) partial_runs[m] = std::move(run);
    }
    if (!ObjectivesMatch(objectives[0], objectives[1])) {
      std::cerr << "OBJECTIVE MISMATCH at m=" << m << ": full devex "
                << objectives[0] << " vs partial " << objectives[1] << "\n";
    }
  }
  t.Print("LP engine: cold compact-LP solves, full-Devex vs partial "
          "pricing (Yelp n=40, k=10)");
  return partial_runs;
}

struct RepairTotals {
  int64_t pivots = 0;
  int64_t dual_pivots = 0;
  double seconds = 0.0;
  int resolves = 0;
};

/// Re-solves `child` from `parent_basis`, accumulating into `totals`, and
/// KKT-audits the repaired optimum. `what` labels a failure.
void RepairChild(const LpModel& child, const LpBasis& parent_basis,
                 RepairTotals* totals, const std::string& what) {
  auto sol = SolveLp(child, SimplexOptions{}, &parent_basis);
  if (!sol.ok()) {
    std::cerr << "warm repair failed on " << what << ": " << sol.status()
              << "\n";
    return;
  }
  totals->pivots += sol->iterations;
  totals->dual_pivots += sol->stats.dual_pivots;
  totals->seconds += sol->solve_seconds;
  ++totals->resolves;
  const KktReport kkt = CheckLpKkt(child, sol->x, sol->dual_values);
  if (!kkt.Ok(1e-6)) {
    std::cerr << "KKT VIOLATION on " << what << ": " << kkt.MaxViolation()
              << "\n";
  }
}

/// Section 2: dual repair of one-bound-change children. The children come
/// in two flavors: branch-and-bound branches (x_u^c <= 0 or >= 1 on a
/// fractional variable) and serving-style bans (every x column of one
/// user's displayed-ish items forced to 0).
void PrintWarmRepair(const ColdRun& parent, const LpModel& lp) {
  if (!parent.ok) return;
  // Fractional variables of the parent optimum: the B&B branching set.
  std::vector<int> fractional;
  for (int j = 0;
       j < lp.num_vars() && static_cast<int>(fractional.size()) < 12; ++j) {
    if (parent.sol.x[j] > 0.1 && parent.sol.x[j] < 0.9 &&
        lp.upper(j) <= 1.0) {
      fractional.push_back(j);
    }
  }
  Table t({"children", "resolves", "pivots", "dual pivots",
           "pivots/resolve"});
  struct Flavor {
    const char* label;
    const char* metric;
  };
  for (const Flavor& flavor :
       {Flavor{"b&b child (one bound)", "b&b child resolve pivots"},
        Flavor{"serving ban (user's columns to 0)",
               "serving ban resolve pivots"}}) {
    const bool bans = flavor.metric[0] == 's';
    RepairTotals totals;
    LpModel child = lp;
    for (size_t i = 0; i < fractional.size(); ++i) {
      // Build the child: one tightened bound (B&B) or one user's columns
      // zeroed (ban) — both leave the parent basis dual-feasible.
      child = lp;
      if (bans) {
        const int banned = fractional[i];
        child.SetBounds(banned, 0.0, 0.0);
        // Ban two neighbors in the same user's column block as well, the
        // "item pulled from a storefront" shape.
        if (banned + 1 < lp.num_vars() && lp.upper(banned + 1) <= 1.0) {
          child.SetBounds(banned + 1, 0.0, 0.0);
        }
      } else if (i % 2 == 0) {
        child.SetBounds(fractional[i], lp.lower(fractional[i]), 0.0);
      } else {
        child.SetBounds(fractional[i], 1.0, lp.upper(fractional[i]));
      }
      RepairChild(child, parent.sol.basis, &totals,
                  std::string(flavor.label) + " child " + std::to_string(i));
    }
    t.NewRow()
        .Add(flavor.label)
        .Add(static_cast<int64_t>(totals.resolves))
        .Add(totals.pivots)
        .Add(totals.dual_pivots)
        .Add(totals.resolves > 0
                 ? FormatDouble(
                       static_cast<double>(totals.pivots) / totals.resolves, 1)
                 : std::string("-"));
    benchutil::RecordMetric(
        std::string("lp engine | ") + flavor.metric + " (dual-warm)",
        static_cast<double>(totals.pivots));
  }
  t.Print("LP engine: dual-simplex warm-basis repair after a bound change "
          "(m=2000 compact LP)");
}

/// Section 3: dual repair under ban waves. Each wave pulls eight
/// well-displayed items at once (x columns with parent value > 0.5 forced
/// to 0) and the dual simplex repairs the parent basis — the
/// many-violation state where the dual Devex row rule matters (the
/// "(devex-rows)" CI pivot ceiling).
void PrintBanWaves(const ColdRun& parent, const LpModel& lp) {
  if (!parent.ok) return;
  constexpr int kWaves = 12;
  constexpr int kBansPerWave = 8;
  // Eligible bans: structural columns the parent optimum actually serves.
  std::vector<int> served;
  for (int j = 0; j < lp.num_vars(); ++j) {
    if (parent.sol.x[j] > 0.5 && lp.lower(j) == 0.0 && lp.upper(j) <= 1.0) {
      served.push_back(j);
    }
  }
  RepairTotals totals;
  Rng rng(99);
  for (int wave = 0; wave < kWaves; ++wave) {
    rng.Shuffle(&served);
    LpModel child = lp;
    for (int b = 0; b < kBansPerWave && b < static_cast<int>(served.size());
         ++b) {
      child.SetBounds(served[b], 0.0, 0.0);
    }
    RepairChild(child, parent.sol.basis, &totals,
                "ban wave " + std::to_string(wave));
  }
  Table t({"waves", "bans/wave", "repaired", "pivots", "dual pivots",
           "pivots/wave", "seconds"});
  t.NewRow()
      .Add(static_cast<int64_t>(kWaves))
      .Add(static_cast<int64_t>(kBansPerWave))
      .Add(static_cast<int64_t>(totals.resolves))
      .Add(totals.pivots)
      .Add(totals.dual_pivots)
      .Add(totals.resolves > 0
               ? FormatDouble(
                     static_cast<double>(totals.pivots) / totals.resolves, 1)
               : std::string("-"))
      .Add(FormatDouble(totals.seconds, 3));
  benchutil::RecordMetric("lp engine | ban-wave repair pivots (devex-rows)",
                          static_cast<double>(totals.pivots));
  benchutil::RecordMetric("lp engine | ban-wave repair seconds (devex-rows)",
                          totals.seconds);
  t.Print("LP engine: dual-simplex repair under 8-item ban waves, dual "
          "Devex rows (m=2000 compact LP)");
}

/// Section 4: eta-file management over a serving-style stream. The stream
/// bans a random served item per step (restoring the oldest ban past a
/// window, so the LP keeps its shape) and warm-resolves from the previous
/// basis; every 250th resolve is forced cold, the serving fallback where
/// a solve runs thousands of pivots and an unmanaged eta chain hurts.
/// Policies compared: adaptive (the default triggers), fixed interval 256
/// (the PR 2-5 behavior), and unmanaged (interval 2^30: the eta chain only
/// dies at the start-of-solve factorization). Kernel us/pivot is the
/// bounded-vs-growing observable.
void PrintServingStream(const LpModel& lp) {
  constexpr int kResolves = 2000;
  constexpr int kColdEvery = 250;
  constexpr int kBanWindow = 40;
  std::vector<int> bannable;
  for (int j = 0; j < lp.num_vars(); ++j) {
    if (lp.lower(j) == 0.0 && lp.upper(j) == 1.0) bannable.push_back(j);
  }
  struct Policy {
    const char* label;
    RefactorPolicy policy;
    int interval;
  };
  const Policy policies[] = {
      {"adaptive", RefactorPolicy::kAdaptive, 256},
      {"fixed-256", RefactorPolicy::kFixedInterval, 256},
      {"unmanaged", RefactorPolicy::kFixedInterval, 1 << 30},
  };
  Table t({"policy", "resolves", "pivots", "refactors", "max eta chain",
           "kernel (s)", "kernel us/pivot", "total (s)"});
  std::vector<double> reference_objectives;
  for (const Policy& policy : policies) {
    SimplexOptions options;
    options.refactor_policy = policy.policy;
    options.refactor_interval = policy.interval;
    Rng rng(7);  // same seed per policy: identical mutation streams
    LpModel work = lp;
    std::deque<int> banned;
    LpBasis basis;
    bool have_basis = false;
    int64_t pivots = 0, refactors = 0, max_eta = 0;
    int resolves = 0, mismatches = 0;
    double kernel_seconds = 0.0;
    Timer stream_timer;
    for (int step = 0; step < kResolves; ++step) {
      const int j = bannable[rng.UniformInt(
          static_cast<uint64_t>(bannable.size()))];
      work.SetBounds(j, 0.0, 0.0);
      banned.push_back(j);
      if (static_cast<int>(banned.size()) > kBanWindow) {
        work.SetBounds(banned.front(), 0.0, 1.0);
        banned.pop_front();
      }
      const bool cold = step % kColdEvery == 0;
      auto sol = SolveLp(work, options,
                         have_basis && !cold ? &basis : nullptr);
      if (!sol.ok()) {
        have_basis = false;
        continue;
      }
      basis = sol->basis;
      have_basis = true;
      pivots += sol->iterations;
      refactors += sol->stats.refactorizations;
      max_eta = std::max(max_eta, sol->stats.eta_count);
      kernel_seconds += sol->stats.ftran_seconds + sol->stats.btran_seconds;
      ++resolves;
      if (&policy == &policies[0]) {
        reference_objectives.push_back(sol->objective);
      } else if (step < static_cast<int>(reference_objectives.size()) &&
                 !ObjectivesMatch(reference_objectives[step],
                                  sol->objective)) {
        ++mismatches;
      }
    }
    if (mismatches > 0) {
      std::cerr << "OBJECTIVE MISMATCH on serving stream (" << policy.label
                << "): " << mismatches << " steps differ from adaptive\n";
    }
    const double total_seconds = stream_timer.ElapsedSeconds();
    t.NewRow()
        .Add(policy.label)
        .Add(static_cast<int64_t>(resolves))
        .Add(pivots)
        .Add(refactors)
        .Add(max_eta)
        .Add(FormatDouble(kernel_seconds, 3))
        .Add(pivots > 0
                 ? FormatDouble(1e6 * kernel_seconds / pivots, 2)
                 : std::string("-"))
        .Add(FormatDouble(total_seconds, 3));
    const std::string prefix =
        std::string("lp engine | serving stream ");
    benchutil::RecordMetric(prefix + "kernel seconds - " + policy.label,
                            kernel_seconds);
    benchutil::RecordMetric(prefix + "max eta chain - " + policy.label,
                            static_cast<double>(max_eta));
    benchutil::RecordMetric(prefix + "refactorizations - " + policy.label,
                            static_cast<double>(refactors));
    benchutil::RecordMetric(prefix + "total seconds - " + policy.label,
                            total_seconds);
  }
  t.Print("LP engine: eta-file management over a 2000-resolve serving "
          "stream, adaptive vs fixed vs unmanaged refactorization "
          "(m=10000 compact LP, cold resolve every 250)");
}

void PrintTables() {
  std::map<int, LpModel> lps;
  for (int m : {kSmallM, kLargeM}) {
    auto lp = BuildEngineLp(m);
    if (!lp.ok()) {
      std::cerr << "m=" << m << ": " << lp.status() << "\n";
      continue;
    }
    lps.emplace(m, std::move(lp).value());
  }
  std::map<int, ColdRun> partial_runs = PrintPricingComparison(lps);
  const auto small = partial_runs.find(kSmallM);
  if (small != partial_runs.end() && lps.count(kSmallM) > 0) {
    PrintWarmRepair(small->second, lps.at(kSmallM));
    PrintBanWaves(small->second, lps.at(kSmallM));
  }
  if (lps.count(kLargeM) > 0) PrintServingStream(lps.at(kLargeM));
}

void BM_ColdCompactSolve(benchmark::State& state) {
  auto inst = GenerateDataset(EngineParams(static_cast<int>(state.range(0))));
  CompactLpMap map;
  auto lp = BuildCompactLp(*inst, &map);
  SimplexOptions options;
  options.pricing =
      state.range(1) != 0 ? PricingMode::kPartial : PricingMode::kFullDevex;
  for (auto _ : state) {
    auto sol = SolveLp(*lp, options);
    benchmark::DoNotOptimize(sol);
  }
}
BENCHMARK(BM_ColdCompactSolve)
    ->Args({2000, 0})
    ->Args({2000, 1})
    ->Unit(benchmark::kMillisecond);

void BM_DualChildResolve(benchmark::State& state) {
  auto inst = GenerateDataset(EngineParams(2000));
  CompactLpMap map;
  auto lp = BuildCompactLp(*inst, &map);
  auto parent = SolveLp(*lp);
  int branch = 0;
  for (int j = 0; j < lp->num_vars(); ++j) {
    if (parent->x[j] > 0.1 && parent->x[j] < 0.9 && lp->upper(j) <= 1.0) {
      branch = j;
      break;
    }
  }
  LpModel child = *lp;
  child.SetBounds(branch, lp->lower(branch), 0.0);
  for (auto _ : state) {
    auto sol = SolveLp(child, SimplexOptions{}, &parent->basis);
    benchmark::DoNotOptimize(sol);
  }
}
BENCHMARK(BM_DualChildResolve)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace savg

SAVG_BENCH_MAIN(savg::PrintTables)
