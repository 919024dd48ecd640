// Batched parallel execution engine: instances x solvers x repeats fanned
// out across a thread pool.
//
// Determinism contract: results are bit-identical regardless of worker
// count. Every task derives its seed from (base_seed, instance index,
// solver name, repeat) — never from thread identity or completion order —
// and writes into a pre-indexed slot of the report.
//
// The engine owns a per-instance cache of the compact LP relaxation, so
// the AVG family (AVG, AVG-D, AVG+LS, AVG-ST on the compact proxy, IR) and
// repeated roundings of one instance all share a single LP solve. Cache
// hit/miss counters are exported in the report for verification.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/fractional_solution.h"
#include "core/lp_formulation.h"
#include "core/problem.h"
#include "solvers/solver.h"
#include "solvers/solver_options.h"
#include "util/status.h"

namespace savg {

/// Thread-safe once-per-instance LP relaxation cache.
class RelaxationCache {
 public:
  /// `warm_starts` (optional, not owned, must outlive the cache) provides
  /// per-instance starting bases for the simplex — typically the final
  /// bases of the previous point of a lambda sweep. Index-aligned with the
  /// instances; an empty or shape-incompatible basis is ignored.
  RelaxationCache(int num_instances, RelaxationOptions options,
                  const std::vector<LpBasis>* warm_starts = nullptr);

  /// The relaxation of instance `index`, solving it on first request.
  /// Concurrent callers for one instance block until the single solve
  /// finishes (and share its error, if any).
  Result<const FractionalSolution*> Get(int index,
                                        const SvgicInstance& instance);

  /// Requests served from cache / solved on demand.
  int64_t hits() const { return hits_.load(); }
  int64_t misses() const { return misses_.load(); }

  /// Final simplex bases of the solved entries (empty basis where the
  /// instance was never requested or solved by a non-simplex path), their
  /// LP objectives (0 where unsolved), and the total/warm-started pivot
  /// counters. Call after the batch drained.
  std::vector<LpBasis> ExportBases() const;
  std::vector<double> ExportObjectives() const;
  int64_t TotalSimplexIterations() const;
  int64_t WarmStartedSolves() const;
  /// Summed per-phase simplex time across the solved entries.
  LpStats TotalLpStats() const;

 private:
  struct Entry {
    std::once_flag once;
    bool solved = false;
    Status status = Status::OK();
    FractionalSolution frac;
  };

  RelaxationOptions options_;
  const std::vector<LpBasis>* warm_starts_ = nullptr;
  std::vector<std::unique_ptr<Entry>> entries_;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
};

/// The deterministic per-task seed (exposed for tests): mixes the base
/// seed with the instance index, the solver's canonical name, and the
/// repeat index. Never zero.
uint64_t BatchTaskSeed(uint64_t base_seed, int instance_index,
                       const std::string& solver_name, int repeat);

struct BatchOptions {
  /// Worker threads; <= 0 = ThreadPool::DefaultThreadCount().
  int num_workers = 0;
  /// Independent repeats per (instance, solver) cell.
  int repeats = 1;
  /// Base of the per-task seed derivation.
  uint64_t base_seed = 1;
  /// Tuning knobs forwarded to every solver.
  SolverOptions solver;
  /// Per-instance warm-start bases for the relaxation cache (not owned,
  /// must outlive Run). Typically BatchReport::relaxation_bases of the
  /// previous point of a lambda sweep, whose LPs share the constraint
  /// matrix and differ only in the objective.
  const std::vector<LpBasis>* relaxation_warm_starts = nullptr;
};

/// One task outcome. `run` is meaningful iff `status.ok()`.
struct BatchTaskResult {
  int instance_index = 0;
  int repeat = 0;
  Status status = Status::OK();
  SolverRun run;
};

struct BatchReport {
  int num_instances = 0;
  int num_solvers = 0;
  int repeats = 1;
  /// Instance-major, then solver, then repeat.
  std::vector<BatchTaskResult> tasks;
  int64_t lp_cache_hits = 0;
  int64_t lp_cache_misses = 0;
  /// Total simplex pivots spent by the shared relaxation cache, and how
  /// many of its solves reused a warm-start basis (warm-start
  /// effectiveness counters for the lambda-sweep benches/tests).
  int64_t lp_simplex_iterations = 0;
  int64_t lp_warm_started_solves = 0;
  /// Per-phase simplex time summed over the cache's LP solves (pricing vs
  /// ratio test vs ftran/btran — the partial-pricing decision data).
  LpStats lp_stats;
  /// Final basis per instance (empty where no simplex relaxation ran);
  /// feed into BatchOptions::relaxation_warm_starts of the next sweep
  /// point.
  std::vector<LpBasis> relaxation_bases;
  /// LP objective per instance (0 where no relaxation ran); lets tests
  /// assert that warm-started sweeps reproduce cold-start optima.
  std::vector<double> relaxation_objectives;

  const BatchTaskResult& Task(int instance, int solver, int repeat) const {
    return tasks[(static_cast<size_t>(instance) * num_solvers + solver) *
                     repeats +
                 repeat];
  }
  /// First task error across the batch, or OK.
  Status FirstError() const;
};

class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions options = {});

  /// Fans instances x solvers x repeats out across the pool.
  Result<BatchReport> Run(const std::vector<const SvgicInstance*>& instances,
                          const std::vector<const Solver*>& solvers) const;

  /// Same, resolving solvers from the global registry by name.
  Result<BatchReport> Run(const std::vector<const SvgicInstance*>& instances,
                          const std::vector<std::string>& solver_names) const;

  const BatchOptions& options() const { return options_; }

 private:
  BatchOptions options_;
};

}  // namespace savg
