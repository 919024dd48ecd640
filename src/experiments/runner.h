// Shared experiment harness used by every bench binary.
//
// A thin front-end over the solver registry and the batch execution engine
// (solvers/solver_registry.h, experiments/batch_runner.h): solvers are
// addressed by registry name, RunAlgorithm() resolves one through the
// registry, and RunComparison() fans its samples x solvers matrix out
// through the BatchRunner (sharing one LP relaxation per instance across
// the AVG family).

#pragma once

#include <string>
#include <vector>

#include "datagen/datasets.h"
#include "metrics/metrics.h"
#include "solvers/solver.h"
#include "solvers/solver_options.h"
#include "util/status.h"

namespace savg {

/// Registry names of the paper's default comparison, in its order
/// (AVG, AVG-D, PER, FMG, SDP, GRF, then IP when requested).
std::vector<std::string> PaperComparisonSolvers(bool include_ip);

/// Runs the registry solver `solver` end-to-end on one instance (relaxation
/// included for AVG/AVG-D). `shared_frac` (optional) reuses a relaxation
/// solved once per instance.
Result<SolverRun> RunAlgorithm(
    const SvgicInstance& instance, const std::string& solver,
    const SolverOptions& options,
    const FractionalSolution* shared_frac = nullptr);

/// Aggregated comparison over `samples` generated instances (seed varies).
struct AggregateRow {
  std::string name;  ///< canonical registry name
  double mean_scaled_total = 0.0;
  double mean_seconds = 0.0;
  double mean_preference = 0.0;  ///< scaled preference part
  double mean_social = 0.0;      ///< social part
  SubgroupMetrics mean_subgroup;
  double mean_regret = 0.0;
  std::vector<double> regret_samples;  ///< pooled per-user regrets
};

/// Cross-point warm-start state for sweeps. Holds the final compact-LP
/// basis of every sampled instance after a RunComparison call; the
/// next call with the same `samples` (e.g. the next lambda of a sweep,
/// which keeps the constraint matrix fixed) seeds its simplex solves from
/// them.
struct SweepWarmStart {
  std::vector<LpBasis> bases;
  /// Per-phase simplex time accumulated across the sweep's LP solves.
  LpStats lp_stats;
};

/// Runs `solvers` (registry names) over `samples` instances through the
/// parallel BatchRunner. `num_workers` <= 0 uses all cores. `warm_start`
/// (optional) carries relaxation bases across calls.
Result<std::vector<AggregateRow>> RunComparison(
    const DatasetParams& base_params, int samples,
    const std::vector<std::string>& solvers, const SolverOptions& options,
    int num_workers = 0, SweepWarmStart* warm_start = nullptr);

}  // namespace savg
