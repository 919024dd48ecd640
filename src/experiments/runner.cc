#include "experiments/runner.h"

#include <algorithm>

#include "experiments/batch_runner.h"
#include "solvers/solver_registry.h"
#include "util/logging.h"

namespace savg {

std::vector<std::string> PaperComparisonSolvers(bool include_ip) {
  std::vector<std::string> names{"AVG", "AVG-D", "PER", "FMG", "SDP", "GRF"};
  if (include_ip) names.push_back("IP");
  return names;
}

Result<SolverRun> RunAlgorithm(const SvgicInstance& instance,
                               const std::string& solver,
                               const SolverOptions& options,
                               const FractionalSolution* shared_frac) {
  SAVG_ASSIGN_OR_RETURN(const Solver* found,
                        SolverRegistry::Global().Find(solver));
  SolverContext context;
  context.options = &options;
  context.shared_relaxation = shared_frac;
  return found->Solve(instance, context);
}

Result<std::vector<AggregateRow>> RunComparison(
    const DatasetParams& base_params, int samples,
    const std::vector<std::string>& solvers, const SolverOptions& options,
    int num_workers, SweepWarmStart* warm_start) {
  if (samples < 1) return Status::InvalidArgument("samples must be >= 1");
  std::vector<AggregateRow> rows(solvers.size());
  for (size_t s = 0; s < solvers.size(); ++s) {
    SAVG_ASSIGN_OR_RETURN(const Solver* solver,
                          SolverRegistry::Global().Find(solvers[s]));
    rows[s].name = solver->Name();
  }

  // Generate the sampled instances up front, then fan the whole
  // samples x solvers matrix out through the batch engine (one shared LP
  // relaxation per instance).
  std::vector<SvgicInstance> instances;
  instances.reserve(samples);
  for (int sample = 0; sample < samples; ++sample) {
    DatasetParams params = base_params;
    params.seed = base_params.seed + 7919 * sample;
    SAVG_ASSIGN_OR_RETURN(SvgicInstance instance, GenerateDataset(params));
    instances.push_back(std::move(instance));
  }
  std::vector<const SvgicInstance*> instance_ptrs;
  instance_ptrs.reserve(instances.size());
  for (const SvgicInstance& instance : instances) {
    instance_ptrs.push_back(&instance);
  }

  BatchOptions batch;
  batch.num_workers = num_workers;
  batch.repeats = 1;
  batch.base_seed = base_params.seed;
  batch.solver = options;
  if (warm_start != nullptr && !warm_start->bases.empty()) {
    batch.relaxation_warm_starts = &warm_start->bases;
  }
  BatchRunner engine(batch);
  SAVG_ASSIGN_OR_RETURN(BatchReport report,
                        engine.Run(instance_ptrs, solvers));
  SAVG_RETURN_NOT_OK(report.FirstError());
  if (warm_start != nullptr) {
    warm_start->bases = std::move(report.relaxation_bases);
    warm_start->lp_stats += report.lp_stats;
  }

  for (int sample = 0; sample < samples; ++sample) {
    const SvgicInstance& instance = instances[sample];
    for (size_t s = 0; s < solvers.size(); ++s) {
      const SolverRun& run =
          report.Task(sample, static_cast<int>(s), 0).run;
      AggregateRow& row = rows[s];
      row.mean_scaled_total += run.scaled_total;
      // AVG-family time includes their share of the shared relaxation.
      row.mean_seconds += run.TotalSeconds();
      const double lambda = instance.lambda();
      const double scaled_pref =
          lambda > 0.0 ? (1.0 - lambda) / lambda * run.breakdown.preference
                       : run.breakdown.preference;
      row.mean_preference += scaled_pref;
      row.mean_social += run.breakdown.social_direct;
      const SubgroupMetrics sm =
          ComputeSubgroupMetrics(instance, run.config);
      row.mean_subgroup.intra_fraction += sm.intra_fraction;
      row.mean_subgroup.inter_fraction += sm.inter_fraction;
      row.mean_subgroup.normalized_density += sm.normalized_density;
      row.mean_subgroup.co_display_rate += sm.co_display_rate;
      row.mean_subgroup.alone_rate += sm.alone_rate;
      const auto regrets = RegretRatios(instance, run.config);
      double regret_sum = 0.0;
      for (double r : regrets) {
        regret_sum += r;
        row.regret_samples.push_back(r);
      }
      row.mean_regret += regret_sum / std::max<size_t>(1, regrets.size());
    }
  }
  const double inv = 1.0 / std::max(1, samples);
  for (AggregateRow& row : rows) {
    row.mean_scaled_total *= inv;
    row.mean_seconds *= inv;
    row.mean_preference *= inv;
    row.mean_social *= inv;
    row.mean_subgroup.intra_fraction *= inv;
    row.mean_subgroup.inter_fraction *= inv;
    row.mean_subgroup.normalized_density *= inv;
    row.mean_subgroup.co_display_rate *= inv;
    row.mean_subgroup.alone_rate *= inv;
    row.mean_regret *= inv;
  }
  return rows;
}

}  // namespace savg
