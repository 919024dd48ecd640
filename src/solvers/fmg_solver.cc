// FMG adapter: the whole-group bundled-itemset baseline.

#include "baselines/fmg.h"
#include "solvers/adapter_util.h"
#include "solvers/builtin_solvers.h"

namespace savg {
namespace {

using solvers_internal::FinalizeRun;
using solvers_internal::OptionsOf;

class FmgSolver : public Solver {
 public:
  std::string Name() const override { return "FMG"; }

  Result<SolverRun> Solve(const SvgicInstance& instance,
                          const SolverContext& context) const override {
    SolverRun run;
    Timer timer;
    auto config = RunFmg(instance, OptionsOf(context).fmg);
    if (!config.ok()) return config.status();
    run.config = std::move(config).value();
    FinalizeRun(instance, Name(), timer, &run);
    return run;
  }
};

}  // namespace

std::unique_ptr<Solver> NewFmgSolver() {
  return std::make_unique<FmgSolver>();
}

}  // namespace savg
