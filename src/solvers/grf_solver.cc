// GRF adapter: the preference-clustering baseline (seeded k-means).

#include "baselines/grf.h"
#include "solvers/adapter_util.h"
#include "solvers/builtin_solvers.h"

namespace savg {
namespace {

using solvers_internal::FinalizeRun;
using solvers_internal::OptionsOf;
using solvers_internal::SeedOr;

class GrfSolver : public Solver {
 public:
  std::string Name() const override { return "GRF"; }

  Result<SolverRun> Solve(const SvgicInstance& instance,
                          const SolverContext& context) const override {
    SolverRun run;
    Timer timer;
    GrfOptions grf = OptionsOf(context).grf;
    grf.seed = SeedOr(context, grf.seed);
    auto config = RunGrf(instance, grf);
    if (!config.ok()) return config.status();
    run.config = std::move(config).value();
    FinalizeRun(instance, Name(), timer, &run);
    return run;
  }
};

}  // namespace

std::unique_ptr<Solver> NewGrfSolver() {
  return std::make_unique<GrfSolver>();
}

}  // namespace savg
