// AVG-SHARD adapter: community-partitioned per-shard LPs coordinated by
// Lagrangian duals on the cut pairs, then per-shard CSF rounding with a
// global boundary re-round (shard/shard_solve.h). The scalable sibling of
// AVG for instances past the single-LP practical limit.

#include "core/avg.h"
#include "shard/shard_solve.h"
#include "solvers/adapter_util.h"
#include "solvers/builtin_solvers.h"

namespace savg {
namespace {

using solvers_internal::FinalizeRun;
using solvers_internal::ObtainRelaxation;
using solvers_internal::OptionsOf;
using solvers_internal::SeedOr;

class AvgShardSolver : public Solver {
 public:
  std::string Name() const override { return "AVG-SHARD"; }

  Result<SolverRun> Solve(const SvgicInstance& instance,
                          const SolverContext& context) const override {
    const SolverOptions& options = OptionsOf(context);
    SolverRun run;
    Timer timer;
    if (instance.lambda() >= 1.0 || instance.lambda() <= 0.0) {
      // The dual bonus cannot enter a shard LP at the lambda endpoints
      // (see shard_solve.h); behave like plain AVG there.
      FractionalSolution local;
      SAVG_ASSIGN_OR_RETURN(auto relaxation,
                            ObtainRelaxation(instance, context, &local));
      AvgOptions avg = options.avg;
      avg.seed = SeedOr(context, avg.seed);
      SAVG_ASSIGN_OR_RETURN(
          auto rounded, RunAvgBest(instance, *relaxation.frac,
                                   std::max(1, options.avg_repeats), avg));
      run.config = std::move(rounded.config);
      run.iterations = rounded.csf_iterations;
      run.used_shared_relaxation = relaxation.shared;
      run.relaxation_seconds = relaxation.frac->solve_seconds;
      FinalizeRun(instance, Name(), timer, &run);
      return run;
    }
    ShardSolveOptions shard = options.shard;
    shard.relaxation = options.relaxation;
    shard.rounding = options.avg;
    shard.rounding_repeats = std::max(1, options.avg_repeats);
    shard.seed = SeedOr(context, shard.seed);
    SAVG_ASSIGN_OR_RETURN(auto sharded, SolveSharded(instance, shard));
    run.config = std::move(sharded.config);
    run.iterations = sharded.stats.csf_iterations;
    run.relaxation_seconds = sharded.stats.lp_seconds;
    FinalizeRun(instance, Name(), timer, &run);
    return run;
  }
};

}  // namespace

std::unique_ptr<Solver> NewAvgShardSolver() {
  return std::make_unique<AvgShardSolver>();
}

}  // namespace savg
