// PER adapter: the personalized top-k baseline (no social coordination).

#include "baselines/per.h"
#include "solvers/adapter_util.h"
#include "solvers/builtin_solvers.h"

namespace savg {
namespace {

using solvers_internal::FinalizeRun;

class PerSolver : public Solver {
 public:
  std::string Name() const override { return "PER"; }

  Result<SolverRun> Solve(const SvgicInstance& instance,
                          const SolverContext&) const override {
    SolverRun run;
    Timer timer;
    auto config = RunPersonalizedTopK(instance);
    if (!config.ok()) return config.status();
    run.config = std::move(config).value();
    FinalizeRun(instance, Name(), timer, &run);
    return run;
  }
};

}  // namespace

std::unique_ptr<Solver> NewPerSolver() {
  return std::make_unique<PerSolver>();
}

}  // namespace savg
