// BRUTE adapter: exhaustive search — the tiny-instance test oracle.

#include "baselines/brute_force.h"
#include "solvers/adapter_util.h"
#include "solvers/builtin_solvers.h"

namespace savg {
namespace {

using solvers_internal::FinalizeRun;
using solvers_internal::OptionsOf;

class BruteForceSolver : public Solver {
 public:
  std::string Name() const override { return "BRUTE"; }

  Result<SolverRun> Solve(const SvgicInstance& instance,
                          const SolverContext& context) const override {
    SolverRun run;
    Timer timer;
    auto result = SolveBruteForce(instance, OptionsOf(context).brute_force);
    if (!result.ok()) return result.status();
    run.config = std::move(result->config);
    run.proven_optimal = true;
    run.iterations =
        static_cast<int64_t>(result->configurations_examined);
    FinalizeRun(instance, Name(), timer, &run);
    return run;
  }
};

}  // namespace

std::unique_ptr<Solver> NewBruteForceSolver() {
  return std::make_unique<BruteForceSolver>();
}

}  // namespace savg
