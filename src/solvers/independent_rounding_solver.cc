// IR adapter: Algorithm 1's independent per-unit rounding — the measurable
// strawman Lemma 3 shows loses a factor m of social utility.

#include "core/avg.h"
#include "solvers/adapter_util.h"
#include "solvers/builtin_solvers.h"

namespace savg {
namespace {

using solvers_internal::FinalizeRun;
using solvers_internal::ObtainRelaxation;
using solvers_internal::OptionsOf;
using solvers_internal::SeedOr;

class IndependentRoundingSolver : public Solver {
 public:
  std::string Name() const override { return "IR"; }

  bool NeedsRelaxation(const SolverContext&) const override { return true; }

  Result<SolverRun> Solve(const SvgicInstance& instance,
                          const SolverContext& context) const override {
    const SolverOptions& options = OptionsOf(context);
    SolverRun run;
    Timer timer;
    FractionalSolution local;
    SAVG_ASSIGN_OR_RETURN(auto relaxation,
                          ObtainRelaxation(instance, context, &local));
    IndependentRoundingOptions ir = options.independent_rounding;
    ir.seed = SeedOr(context, ir.seed);
    auto rounded = RunIndependentRounding(instance, *relaxation.frac, ir);
    if (!rounded.ok()) return rounded.status();
    run.config = std::move(rounded->config);
    run.iterations = rounded->duplicate_draws;
    run.used_shared_relaxation = relaxation.shared;
    run.relaxation_seconds = relaxation.frac->solve_seconds;
    FinalizeRun(instance, Name(), timer, &run);
    return run;
  }
};

}  // namespace

std::unique_ptr<Solver> NewIndependentRoundingSolver() {
  return std::make_unique<IndependentRoundingSolver>();
}

}  // namespace savg
