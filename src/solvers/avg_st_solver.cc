// AVG-ST adapter: the size-capped SVGIC-ST pipeline (Section 4.4).
//
// When the configured relaxation is the compact proxy (use_st_lp = false),
// the adapter can consume the batch engine's shared per-instance LP; the
// exact ST LP is solver-specific and always solved locally.

#include "core/avg_st.h"
#include "solvers/adapter_util.h"
#include "solvers/builtin_solvers.h"

namespace savg {
namespace {

using solvers_internal::FinalizeRun;
using solvers_internal::ObtainRelaxation;
using solvers_internal::OptionsOf;
using solvers_internal::SeedOr;

class AvgStSolver : public Solver {
 public:
  std::string Name() const override { return "AVG-ST"; }

  bool NeedsRelaxation(const SolverContext& context) const override {
    return !OptionsOf(context).st.use_st_lp;
  }

  Result<SolverRun> Solve(const SvgicInstance& instance,
                          const SolverContext& context) const override {
    const SolverOptions& options = OptionsOf(context);
    StOptions st = options.st;
    st.avg.seed = SeedOr(context, st.avg.seed);
    // The compact-proxy path uses the top-level relaxation options — the
    // same LP the rest of the AVG family (and the batch engine's shared
    // cache) solves — so shared and standalone runs round the identical
    // fractional solution. st.relaxation only configures the exact ST LP.
    if (!st.use_st_lp) st.relaxation = options.relaxation;
    SolverRun run;
    Timer timer;
    if (st.use_st_lp || context.shared_relaxation == nullptr) {
      auto result = RunAvgSt(instance, st);
      if (!result.ok()) return result.status();
      run.config = std::move(result->config);
      run.iterations = result->csf_iterations;
    } else {
      // Shared compact relaxation: replicate RunAvgSt's rounding step on it.
      if (st.size_cap < 1) {
        return Status::InvalidArgument("size cap must be >= 1");
      }
      AvgOptions avg = st.avg;
      avg.size_cap = st.size_cap;
      auto result = RunAvgBest(instance, *context.shared_relaxation,
                               std::max(1, st.avg_repeats), avg);
      if (!result.ok()) return result.status();
      run.config = std::move(result->config);
      run.iterations = result->csf_iterations;
      run.used_shared_relaxation = true;
      run.relaxation_seconds = context.shared_relaxation->solve_seconds;
    }
    FinalizeRun(instance, Name(), timer, &run);
    return run;
  }
};

}  // namespace

std::unique_ptr<Solver> NewAvgStSolver() {
  return std::make_unique<AvgStSolver>();
}

}  // namespace savg
