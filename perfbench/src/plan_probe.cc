// The planning probe of the traced runs: single-threaded cold planning of a
// fixed instance set (PlanProbeSpecs) by the registered AVG solver, the path
// ROADMAP item 3's pricing, presolve and refactorization decisions govern
// and that no serving resolve takes after its first. One reference pass
// plans each instance (the compact LP relaxation, exact simplex under the
// 4000-row limit and subgradient above it, handed to the solver as its
// shared relaxation); two layered passes then re-plan through the same
// public calls one layer at a time (BuildCompactLp, SolveLp, or
// BuildConcaveProblem + MaximizePairwiseConcave, then RunAvgBest and
// Evaluate) and must reproduce the reference pivots, objectives and scaled
// totals, and each other's exact counts.
//
// The untraced runs time the same set end to end (ColdPlanning):
// cold_solve_cpu_s is the CPU time of one whole pass of PlanOnce over it at
// reference host speed.

#include <chrono>

#include "core/avg.h"
#include "core/lp_formulation.h"
#include "core/objective.h"
#include "host_speed.h"
#include "solvers/solver_options.h"
#include "solvers/solver_registry.h"
#include "workloads.h"

namespace perfbench {

using savg::FractionalSolution;

namespace {

using Clock = std::chrono::steady_clock;

// The answer of one plan, which the layered passes must reproduce.
struct Plan {
  double lp_objective = 0.0;
  double scaled_total = 0.0;
  int pivots = 0;
  bool exact = false;
};

// One cold plan: relaxation, then the registered AVG solver on it.
savg::Result<Plan> PlanOnce(const savg::Solver& solver,
                            const savg::SvgicInstance& instance,
                            uint64_t seed) {
  auto frac = savg::SolveRelaxation(instance);
  if (!frac.ok()) return frac.status();
  savg::SolverContext context;
  context.seed = seed;
  context.shared_relaxation = &*frac;
  auto run = solver.Solve(instance, context);
  if (!run.ok()) return run.status();
  SAVG_RETURN_NOT_OK(run->config.CheckValid());
  Plan plan;
  plan.lp_objective = frac->lp_objective;
  plan.scaled_total = run->scaled_total;
  plan.pivots = frac->simplex_iterations;
  plan.exact = frac->exact;
  return plan;
}

// Per-layer totals of one layered pass.
struct LayeredPass {
  double solve_ms_total = 0.0;
  double subgradient_ms = 0.0;
  savg::LpStats lp;
  int64_t solves = 0;
  int64_t pivots = 0;
  int64_t refactorizations = 0;
  int64_t mismatches = 0;
};

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

LayeredPass PlanLayered(const std::vector<savg::SvgicInstance>& instances,
                        const std::vector<Plan>& reference, uint64_t seed) {
  LayeredPass out;
  const savg::SolverOptions solver_options;
  const savg::RelaxationOptions relaxation;
  for (size_t i = 0; i < instances.size(); ++i) {
    const savg::SvgicInstance& instance = instances[i];
    FractionalSolution frac;
    frac.num_users = instance.num_users();
    frac.num_items = instance.num_items();
    frac.num_slots = instance.num_slots();
    int pivots = 0;
    if (savg::CompactLpRowCount(instance) <=
        relaxation.auto_simplex_row_limit) {
      savg::CompactLpMap map;
      auto lp = savg::BuildCompactLp(instance, &map);
      if (!lp.ok()) {
        ++out.mismatches;
        continue;
      }
      const Clock::time_point t = Clock::now();
      auto sol = savg::SolveLp(*lp, relaxation.simplex);
      const double solve_ms = MillisSince(t);
      if (!sol.ok()) {
        ++out.mismatches;
        continue;
      }
      const int m = instance.num_items();
      frac.x.assign(static_cast<size_t>(instance.num_users()) * m, 0.0);
      for (UserId u = 0; u < instance.num_users(); ++u) {
        for (ItemId c = 0; c < m; ++c) {
          const int var = map.XVar(u, c, m);
          if (var >= 0) frac.x[static_cast<size_t>(u) * m + c] = sol->x[var];
        }
      }
      frac.lp_objective = sol->objective;
      frac.exact = true;
      pivots = sol->iterations;
      out.solve_ms_total += solve_ms;
      out.lp += sol->stats;
      ++out.solves;
      out.pivots += sol->iterations;
      out.refactorizations += sol->stats.refactorizations;
    } else {
      const Clock::time_point t = Clock::now();
      auto sol = savg::MaximizePairwiseConcave(
          savg::BuildConcaveProblem(instance), relaxation.subgradient);
      out.subgradient_ms += MillisSince(t);
      if (!sol.ok()) {
        ++out.mismatches;
        continue;
      }
      frac.x = std::move(sol->x);
      frac.lp_objective = sol->objective;
    }
    frac.BuildSupporters(relaxation.prune_tolerance);

    savg::AvgOptions avg = solver_options.avg;
    avg.seed = SessionSeed(seed, static_cast<int>(i));
    auto rounded = savg::RunAvgBest(instance, frac,
                                    solver_options.avg_repeats, avg);
    if (!rounded.ok() || pivots != reference[i].pivots ||
        frac.lp_objective != reference[i].lp_objective ||
        savg::Evaluate(instance, rounded->config).ScaledTotal() !=
            reference[i].scaled_total) {
      ++out.mismatches;
    }
  }
  return out;
}

double Mean(double total, int64_t count) {
  return count > 0 ? total / static_cast<double>(count) : 0.0;
}

// The planning set with the registered AVG solver.
struct PlanSet {
  const savg::Solver* solver = nullptr;
  std::vector<InstanceSpec> specs;
  std::vector<savg::SvgicInstance> instances;
};

bool LoadPlanSet(PlanSet* set, Report* report) {
  auto solver = savg::SolverRegistry::Global().Find("AVG");
  if (!solver.ok()) {
    report->Check(false, "AVG solver: " + solver.status().ToString());
    return false;
  }
  set->solver = *solver;
  set->specs = PlanProbeSpecs();
  for (const InstanceSpec& spec : set->specs) {
    auto instance = GenerateInstance(spec);
    if (!instance.ok()) {
      report->Check(false, "datagen " + SpecName(spec) + ": " +
                               instance.status().ToString());
      return false;
    }
    set->instances.push_back(std::move(*instance));
  }
  return true;
}

// Process CPU time of a pass over the planning set, raw and at reference
// host speed.
struct PassTime {
  double cpu_seconds = 0.0;
  double normalised_seconds = 0.0;
};

// Plans every instance of the set once, checking each plan against its LP
// bound; false (reported) when a plan fails. With a `monitor`, times each
// plan in process CPU time and divides it by the host's slowdown over it.
bool PlanAll(const PlanSet& set, uint64_t seed, std::vector<Plan>* plans,
             Report* report, const HostSpeedMonitor* monitor = nullptr,
             PassTime* time = nullptr) {
  plans->clear();
  for (size_t i = 0; i < set.instances.size(); ++i) {
    report->AddAttempted(1);
    const double from_ms = HostSpeedMonitor::NowMs();
    const double cpu_start = monitor ? monitor->WorkCpuSeconds() : 0.0;
    auto plan = PlanOnce(*set.solver, set.instances[i],
                         SessionSeed(seed, static_cast<int>(i)));
    if (monitor != nullptr) {
      const double cpu_seconds = monitor->WorkCpuSeconds() - cpu_start;
      time->cpu_seconds += cpu_seconds;
      time->normalised_seconds +=
          cpu_seconds / monitor->Slowdown(from_ms, HostSpeedMonitor::NowMs());
    }
    if (!plan.ok()) {
      report->AddFailed(1);
      report->Check(false, "plan " + SpecName(set.specs[i]) + ": " +
                               plan.status().ToString());
      return false;
    }
    report->Check(!plan->exact || plan->scaled_total <=
                                      plan->lp_objective * (1.0 + 1e-9) + 1e-9,
                  "objective above the LP bound on " + SpecName(set.specs[i]));
    plans->push_back(*plan);
  }
  return true;
}

}  // namespace

struct ColdPlanning::State {
  PlanSet set;
  bool loaded = false;
  std::vector<double> pass_seconds, pass_cpu_seconds;
  std::vector<Plan> first;
};

ColdPlanning::ColdPlanning(const BenchArgs& args,
                           const HostSpeedMonitor& monitor, Report* report)
    : args_(args), monitor_(monitor), report_(report),
      state_(std::make_unique<State>()) {
  state_->loaded = LoadPlanSet(&state_->set, report);
}

ColdPlanning::~ColdPlanning() = default;

void ColdPlanning::Pass() {
  State& st = *state_;
  if (!st.loaded) return;
  PassTime time;
  std::vector<Plan> plans;
  if (!PlanAll(st.set, args_.seed, &plans, report_, &monitor_, &time)) {
    st.loaded = false;
    return;
  }
  st.pass_seconds.push_back(time.normalised_seconds);
  st.pass_cpu_seconds.push_back(time.cpu_seconds);
  if (st.first.empty()) st.first = plans;
  for (size_t i = 0; i < plans.size(); ++i) {
    report_->Check(plans[i].scaled_total == st.first[i].scaled_total &&
                       plans[i].lp_objective == st.first[i].lp_objective &&
                       plans[i].pivots == st.first[i].pivots,
                   "cold plan of " + SpecName(st.set.specs[i]) +
                       " differs between passes");
  }
}

void ColdPlanning::Finish() {
  const State& st = *state_;
  if (st.pass_seconds.empty()) return;
  std::string names;
  for (size_t i = 0; i < st.set.specs.size(); ++i) {
    names += (i ? ", " : "") + SpecName(st.set.specs[i]) +
             (st.first[i].exact
                  ? " (exact, " + std::to_string(st.first[i].pivots) +
                        " pivots)"
                  : " (subgradient)");
  }
  Report::Note("cold planning set: " + names);
  std::string passes;
  for (size_t i = 0; i < st.pass_seconds.size(); ++i) {
    passes += (i ? ", " : "") + Fmt(st.pass_seconds[i], 3) + " (" +
              Fmt(st.pass_cpu_seconds[i], 3) + ")";
  }
  Report::Note("cold planning passes at reference speed (at the host's): " +
               passes);
  Report::Note("cold planning pass: median " +
               Fmt(Median(st.pass_cpu_seconds), 4) +
               " CPU-s at the host's speed");
  report_->AddTiming("cold_solve_cpu_s", Summarize(st.pass_seconds), "s");
}

void RunPlanProbe(const BenchArgs& args, Report* report) {
  PlanSet set;
  std::vector<Plan> reference;
  if (!LoadPlanSet(&set, report) ||
      !PlanAll(set, args.seed, &reference, report)) {
    return;
  }
  const std::vector<savg::SvgicInstance>& instances = set.instances;

  const LayeredPass a = PlanLayered(instances, reference, args.seed);
  const LayeredPass b = PlanLayered(instances, reference, args.seed);
  report->Check(a.mismatches == 0 && b.mismatches == 0,
                "layered re-plan did not reproduce the planned pivots, "
                "objectives and scaled totals");
  report->Check(a.pivots == b.pivots &&
                    a.refactorizations == b.refactorizations,
                "exact counts differ between two layered passes");
  const std::string base =
      "over " + std::to_string(a.solves) + " exact cold solves";
  report->Add("plan.solve_ms", Mean(a.solve_ms_total, a.solves), "ms",
              "mean " + base);
  report->Add("plan.factor_ms", Mean(a.lp.factor_seconds * 1e3, a.solves),
              "ms", "mean " + base);
  report->Add("plan.pricing_ms", Mean(a.lp.pricing_seconds * 1e3, a.solves),
              "ms", "mean " + base);
  report->Add("plan.factor_share",
              a.solve_ms_total > 0
                  ? a.lp.factor_seconds * 1e3 / a.solve_ms_total
                  : 0.0,
              "share",
              Fmt(a.lp.factor_seconds * 1e3, 1) + " ms factor / " +
                  Fmt(a.solve_ms_total, 1) + " ms solve");
  report->Add("plan.pivots", static_cast<double>(a.pivots), "count", base);
  report->Add("plan.refactorizations",
              static_cast<double>(a.refactorizations), "count", base);
  report->Add("lp.subgradient_ms", a.subgradient_ms, "ms",
              "subgradient instances of the probe set");
}

}  // namespace perfbench
