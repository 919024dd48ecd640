// SDP adapter: the socially-tight-subgroup baseline (static partition).

#include "baselines/sdp.h"
#include "solvers/adapter_util.h"
#include "solvers/builtin_solvers.h"

namespace savg {
namespace {

using solvers_internal::FinalizeRun;
using solvers_internal::OptionsOf;

class SdpSolver : public Solver {
 public:
  std::string Name() const override { return "SDP"; }

  Result<SolverRun> Solve(const SvgicInstance& instance,
                          const SolverContext& context) const override {
    SolverRun run;
    Timer timer;
    auto config = RunSdp(instance, OptionsOf(context).sdp);
    if (!config.ok()) return config.status();
    run.config = std::move(config).value();
    FinalizeRun(instance, Name(), timer, &run);
    return run;
  }
};

}  // namespace

std::unique_ptr<Solver> NewSdpSolver() {
  return std::make_unique<SdpSolver>();
}

}  // namespace savg
