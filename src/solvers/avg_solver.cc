// AVG and AVG+LS adapters: LP relaxation + best-of-k randomized CSF
// rounding (Corollary 4.1), optionally polished by local search.

#include "core/avg.h"
#include "core/local_search.h"
#include "solvers/adapter_util.h"
#include "solvers/builtin_solvers.h"

namespace savg {
namespace {

using solvers_internal::FinalizeRun;
using solvers_internal::ObtainRelaxation;
using solvers_internal::OptionsOf;
using solvers_internal::SeedOr;

class AvgSolver : public Solver {
 public:
  explicit AvgSolver(bool local_search) : local_search_(local_search) {}

  std::string Name() const override {
    return local_search_ ? "AVG+LS" : "AVG";
  }

  bool NeedsRelaxation(const SolverContext&) const override { return true; }

  Result<SolverRun> Solve(const SvgicInstance& instance,
                          const SolverContext& context) const override {
    const SolverOptions& options = OptionsOf(context);
    SolverRun run;
    Timer timer;
    FractionalSolution local;
    SAVG_ASSIGN_OR_RETURN(auto relaxation,
                          ObtainRelaxation(instance, context, &local));
    AvgOptions avg = options.avg;
    avg.seed = SeedOr(context, avg.seed);
    auto rounded = RunAvgBest(instance, *relaxation.frac,
                              std::max(1, options.avg_repeats), avg);
    if (!rounded.ok()) return rounded.status();
    run.iterations = rounded->csf_iterations;
    if (local_search_) {
      LocalSearchOptions ls = options.local_search;
      ls.size_cap = options.avg.size_cap;
      auto polished = ImproveByLocalSearch(instance, rounded->config, ls);
      if (!polished.ok()) return polished.status();
      run.config = std::move(polished->config);
    } else {
      run.config = std::move(rounded->config);
    }
    run.used_shared_relaxation = relaxation.shared;
    run.relaxation_seconds = relaxation.frac->solve_seconds;
    FinalizeRun(instance, Name(), timer, &run);
    return run;
  }

 private:
  const bool local_search_;
};

}  // namespace

std::unique_ptr<Solver> NewAvgSolver(bool local_search) {
  return std::make_unique<AvgSolver>(local_search);
}

}  // namespace savg
