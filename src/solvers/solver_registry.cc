#include "solvers/solver_registry.h"

#include <algorithm>
#include <cctype>
#include <initializer_list>
#include <sstream>

#include "baselines/per.h"
#include "solvers/solver_options.h"
#include "util/logging.h"

namespace savg {

namespace {

std::string Lowercase(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char ch) {
    return static_cast<char>(std::tolower(ch));
  });
  return out;
}

/// Context options, or process-wide defaults when none were supplied.
const SolverOptions& OptionsOf(const SolverContext& context) {
  static const SolverOptions kDefaults;
  return context.options != nullptr ? *context.options : kDefaults;
}

/// Task seed override: context.seed when nonzero, else the option seed.
uint64_t SeedOr(const SolverContext& context, uint64_t option_seed) {
  return context.seed != 0 ? context.seed : option_seed;
}

/// The shared compact relaxation, or one solved into `*own`; records which
/// (and its solve time) on `run`.
Result<const FractionalSolution*> ObtainRelaxation(
    const SvgicInstance& instance, const SolverContext& context,
    const SolverOptions& options, FractionalSolution* own, SolverRun* run) {
  const FractionalSolution* frac = context.shared_relaxation;
  if (frac == nullptr) {
    SAVG_ASSIGN_OR_RETURN(*own, SolveRelaxation(instance, options.relaxation));
    frac = own;
  }
  run->used_shared_relaxation = frac == context.shared_relaxation;
  run->relaxation_seconds = frac->solve_seconds;
  return frac;
}

// --- The algorithms' own lines (Solver::RunFn) ---------------------------

/// Best-of-k randomized CSF rounding (Corollary 4.1).
Status RoundBestOfK(const SvgicInstance& instance,
                    const FractionalSolution& frac, int repeats,
                    const AvgOptions& avg, SolverRun* run) {
  SAVG_ASSIGN_OR_RETURN(AvgResult rounded,
                        RunAvgBest(instance, frac, std::max(1, repeats), avg));
  run->config = std::move(rounded.config);
  run->iterations = rounded.csf_iterations;
  return Status::OK();
}

/// AVG: LP relaxation + best-of-k randomized CSF rounding.
Status SolveAvg(const SvgicInstance& instance, const SolverContext& context,
                const SolverOptions& options,
                const FractionalSolution* relaxation, SolverRun* run) {
  AvgOptions avg = options.avg;
  avg.seed = SeedOr(context, avg.seed);
  return RoundBestOfK(instance, *relaxation, options.avg_repeats, avg, run);
}

/// AVG+LS: AVG polished by local search.
Status SolveAvgLs(const SvgicInstance& instance, const SolverContext& context,
                  const SolverOptions& options,
                  const FractionalSolution* relaxation, SolverRun* run) {
  SAVG_RETURN_NOT_OK(SolveAvg(instance, context, options, relaxation, run));
  LocalSearchOptions ls = options.local_search;
  ls.size_cap = options.avg.size_cap;
  SAVG_ASSIGN_OR_RETURN(LocalSearchResult polished,
                        ImproveByLocalSearch(instance, run->config, ls));
  run->config = std::move(polished.config);
  return Status::OK();
}

/// AVG-SHARD: dual-coordinated shard LPs and per-shard CSF rounding
/// (shard/shard_solve.h), solving and rounding with AVG's options.
Status SolveAvgShard(const SvgicInstance& instance,
                     const SolverContext& context,
                     const SolverOptions& options,
                     const FractionalSolution*, SolverRun* run) {
  if (instance.lambda() >= 1.0 || instance.lambda() <= 0.0) {
    // The dual bonus cannot enter a shard LP at the lambda endpoints (see
    // shard_solve.h); behave like plain AVG there.
    FractionalSolution own;
    SAVG_ASSIGN_OR_RETURN(
        const FractionalSolution* frac,
        ObtainRelaxation(instance, context, options, &own, run));
    return SolveAvg(instance, context, options, frac, run);
  }
  ShardSolveOptions shard = options.shard;
  shard.relaxation = options.relaxation;
  shard.rounding = options.avg;
  shard.rounding_repeats = std::max(1, options.avg_repeats);
  shard.seed = SeedOr(context, shard.seed);
  SAVG_ASSIGN_OR_RETURN(ShardSolveResult sharded,
                        SolveSharded(instance, shard));
  run->config = std::move(sharded.config);
  run->iterations = sharded.stats.csf_iterations;
  run->relaxation_seconds = sharded.stats.lp_seconds;
  return Status::OK();
}

/// AVG-D: LP relaxation + the derandomized CSF rounding (Algorithm 3).
Status SolveAvgD(const SvgicInstance& instance, const SolverContext&,
                 const SolverOptions& options,
                 const FractionalSolution* relaxation, SolverRun* run) {
  SAVG_ASSIGN_OR_RETURN(AvgDResult rounded,
                        RunAvgD(instance, *relaxation, options.avg_d));
  run->config = std::move(rounded.config);
  run->iterations = rounded.csf_iterations;
  return Status::OK();
}

/// PER: personalized top-k, no social coordination.
Status SolvePer(const SvgicInstance& instance, const SolverContext&,
                const SolverOptions&, const FractionalSolution*,
                SolverRun* run) {
  SAVG_ASSIGN_OR_RETURN(run->config, RunPersonalizedTopK(instance));
  return Status::OK();
}

/// FMG: the whole-group bundled itemset.
Status SolveFmg(const SvgicInstance& instance, const SolverContext&,
                const SolverOptions& options, const FractionalSolution*,
                SolverRun* run) {
  SAVG_ASSIGN_OR_RETURN(run->config, RunFmg(instance, options.fmg));
  return Status::OK();
}

/// SDP: socially tight subgroups from a static partition.
Status SolveSdp(const SvgicInstance& instance, const SolverContext&,
                const SolverOptions& options, const FractionalSolution*,
                SolverRun* run) {
  SAVG_ASSIGN_OR_RETURN(run->config, RunSdp(instance, options.sdp));
  return Status::OK();
}

/// GRF: preference clustering (seeded k-means).
Status SolveGrf(const SvgicInstance& instance, const SolverContext& context,
                const SolverOptions& options, const FractionalSolution*,
                SolverRun* run) {
  GrfOptions grf = options.grf;
  grf.seed = SeedOr(context, grf.seed);
  SAVG_ASSIGN_OR_RETURN(run->config, RunGrf(instance, grf));
  return Status::OK();
}

/// IP: the exact integer program (in-repo branch and bound).
Status SolveIp(const SvgicInstance& instance, const SolverContext&,
               const SolverOptions& options, const FractionalSolution*,
               SolverRun* run) {
  SAVG_ASSIGN_OR_RETURN(IpExactResult result,
                        SolveIpExact(instance, options.ip));
  run->config = std::move(result.config);
  run->proven_optimal = result.proven_optimal;
  run->iterations = result.nodes_explored;
  return Status::OK();
}

/// AVG-ST (Section 4.4): size-capped rounding of the compact relaxation,
/// or of the exact slot-indexed ST LP it solves itself (`st.use_st_lp`).
Status SolveAvgSt(const SvgicInstance& instance, const SolverContext& context,
                  const SolverOptions& options,
                  const FractionalSolution* relaxation, SolverRun* run) {
  StOptions st = options.st;
  st.avg.seed = SeedOr(context, st.avg.seed);
  if (relaxation == nullptr) {
    SAVG_ASSIGN_OR_RETURN(AvgResult result, RunAvgSt(instance, st));
    run->config = std::move(result.config);
    run->iterations = result.csf_iterations;
    return Status::OK();
  }
  if (st.size_cap < 1) {
    return Status::InvalidArgument("size cap must be >= 1");
  }
  AvgOptions avg = st.avg;
  avg.size_cap = st.size_cap;
  return RoundBestOfK(instance, *relaxation, st.avg_repeats, avg, run);
}

/// BRUTE: exhaustive search, the tiny-instance test oracle.
Status SolveBrute(const SvgicInstance& instance, const SolverContext&,
                  const SolverOptions& options, const FractionalSolution*,
                  SolverRun* run) {
  SAVG_ASSIGN_OR_RETURN(BruteForceResult result,
                        SolveBruteForce(instance, options.brute_force));
  run->config = std::move(result.config);
  run->proven_optimal = true;
  run->iterations = static_cast<int64_t>(result.configurations_examined);
  return Status::OK();
}

/// IR: Algorithm 1's independent per-unit rounding, the strawman Lemma 3
/// shows loses a factor m of social utility.
Status SolveIr(const SvgicInstance& instance, const SolverContext& context,
               const SolverOptions& options,
               const FractionalSolution* relaxation, SolverRun* run) {
  IndependentRoundingOptions ir = options.independent_rounding;
  ir.seed = SeedOr(context, ir.seed);
  SAVG_ASSIGN_OR_RETURN(IndependentRoundingResult rounded,
                        RunIndependentRounding(instance, *relaxation, ir));
  run->config = std::move(rounded.config);
  run->iterations = rounded.duplicate_draws;
  return Status::OK();
}

}  // namespace

// --- Solver ---------------------------------------------------------------

bool Solver::NeedsRelaxation(const SolverContext& context) const {
  return rounds_relaxation_ != nullptr &&
         rounds_relaxation_(OptionsOf(context));
}

Result<SolverRun> Solver::Solve(const SvgicInstance& instance,
                                const SolverContext& context) const {
  const SolverOptions& options = OptionsOf(context);
  SolverRun run;
  Timer timer;
  FractionalSolution own;
  const FractionalSolution* relaxation = nullptr;
  if (NeedsRelaxation(context)) {
    SAVG_ASSIGN_OR_RETURN(
        relaxation, ObtainRelaxation(instance, context, options, &own, &run));
  }
  SAVG_RETURN_NOT_OK(run_(instance, context, options, relaxation, &run));
  run.solver = name_;
  run.seconds = timer.ElapsedSeconds();
  run.breakdown = Evaluate(instance, run.config);
  run.scaled_total = run.breakdown.ScaledTotal();
  return run;
}

// --- The table ------------------------------------------------------------

const SolverRegistry& SolverRegistry::Global() {
  static const SolverRegistry* registry = new SolverRegistry();
  return *registry;
}

SolverRegistry::SolverRegistry() {
  const auto add = [this](const char* name,
                          std::initializer_list<const char*> aliases,
                          Solver::RoundsRelaxationFn rounds_relaxation,
                          Solver::RunFn run) {
    const size_t idx = solvers_.size();
    index_[Lowercase(name)] = idx;
    for (const char* alias : aliases) index_[Lowercase(alias)] = idx;
    solvers_.push_back(Solver(name, rounds_relaxation, run));
  };
  const Solver::RoundsRelaxationFn always = [](const SolverOptions&) {
    return true;
  };
  const Solver::RoundsRelaxationFn unless_st_lp =
      [](const SolverOptions& options) { return !options.st.use_st_lp; };
  // The paper's default comparison order, then the extras.
  add("AVG", {}, always, SolveAvg);
  add("AVG+LS", {"avg-ls", "avg_ls"}, always, SolveAvgLs);
  add("AVG-SHARD", {"avg-shard", "avg_shard", "shard"}, nullptr,
      SolveAvgShard);
  add("AVG-D", {"avgd", "avg_d"}, always, SolveAvgD);
  add("PER", {}, nullptr, SolvePer);
  add("FMG", {}, nullptr, SolveFmg);
  add("SDP", {}, nullptr, SolveSdp);
  add("GRF", {}, nullptr, SolveGrf);
  add("IP", {"ip-exact"}, nullptr, SolveIp);
  add("AVG-ST", {"avg_st", "avgst"}, unless_st_lp, SolveAvgSt);
  add("BRUTE", {"bf", "brute-force"}, nullptr, SolveBrute);
  add("IR", {"independent", "independent-rounding"}, always, SolveIr);
}

Result<const Solver*> SolverRegistry::Find(const std::string& name) const {
  auto it = index_.find(Lowercase(name));
  if (it == index_.end()) {
    std::ostringstream msg;
    msg << "unknown solver \"" << name << "\"; known solvers:";
    for (const Solver& solver : solvers_) msg << " " << solver.name_;
    return Status::NotFound(msg.str());
  }
  return &solvers_[it->second];
}

std::vector<std::string> SolverRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(solvers_.size());
  for (const Solver& solver : solvers_) names.push_back(solver.name_);
  return names;
}

}  // namespace savg
