// IP adapter: the exact integer-programming baseline (in-repo B&B).

#include "baselines/ip_exact.h"
#include "solvers/adapter_util.h"
#include "solvers/builtin_solvers.h"

namespace savg {
namespace {

using solvers_internal::FinalizeRun;
using solvers_internal::OptionsOf;

class IpSolver : public Solver {
 public:
  std::string Name() const override { return "IP"; }

  Result<SolverRun> Solve(const SvgicInstance& instance,
                          const SolverContext& context) const override {
    SolverRun run;
    Timer timer;
    auto result = SolveIpExact(instance, OptionsOf(context).ip);
    if (!result.ok()) return result.status();
    run.config = std::move(result->config);
    run.proven_optimal = result->proven_optimal;
    run.iterations = result->nodes_explored;
    FinalizeRun(instance, Name(), timer, &run);
    return run;
  }
};

}  // namespace

std::unique_ptr<Solver> NewIpSolver() {
  return std::make_unique<IpSolver>();
}

}  // namespace savg
