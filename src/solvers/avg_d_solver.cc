// AVG-D adapter: LP relaxation + the derandomized CSF rounding
// (Algorithm 3). Fully deterministic — ignores the task seed.

#include "core/avg_d.h"
#include "solvers/adapter_util.h"
#include "solvers/builtin_solvers.h"

namespace savg {
namespace {

using solvers_internal::FinalizeRun;
using solvers_internal::ObtainRelaxation;
using solvers_internal::OptionsOf;

class AvgDSolver : public Solver {
 public:
  std::string Name() const override { return "AVG-D"; }

  bool NeedsRelaxation(const SolverContext&) const override { return true; }

  Result<SolverRun> Solve(const SvgicInstance& instance,
                          const SolverContext& context) const override {
    const SolverOptions& options = OptionsOf(context);
    SolverRun run;
    Timer timer;
    FractionalSolution local;
    SAVG_ASSIGN_OR_RETURN(auto relaxation,
                          ObtainRelaxation(instance, context, &local));
    auto rounded = RunAvgD(instance, *relaxation.frac, options.avg_d);
    if (!rounded.ok()) return rounded.status();
    run.config = std::move(rounded->config);
    run.iterations = rounded->csf_iterations;
    run.used_shared_relaxation = relaxation.shared;
    run.relaxation_seconds = relaxation.frac->solve_seconds;
    FinalizeRun(instance, Name(), timer, &run);
    return run;
  }
};

}  // namespace

std::unique_ptr<Solver> NewAvgDSolver() {
  return std::make_unique<AvgDSolver>();
}

}  // namespace savg
