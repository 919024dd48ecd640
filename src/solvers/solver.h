// The solver abstraction every built-in algorithm is served through.
//
// A Solver is one row of the fixed SolverRegistry table: a canonical name,
// whether the algorithm rounds the compact LP relaxation, and a plain
// function with only that algorithm's own lines. Solve() does the work all
// of them share (option defaults, timer, shared-or-own relaxation,
// evaluation). Callers address algorithms by string name through the
// registry, so adding one never touches a call site.
//
// Layering: this header depends only on core/ types; the per-algorithm
// option structs live in solver_options.h.

#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "core/configuration.h"
#include "core/objective.h"
#include "core/problem.h"
#include "util/status.h"

namespace savg {

struct FractionalSolution;
struct SolverOptions;

/// Per-call inputs shared by every solver.
struct SolverContext {
  /// Overrides the per-algorithm option seeds when nonzero. The batch
  /// engine derives one seed per task from indices (never from thread
  /// identity), which is what makes parallel runs deterministic.
  uint64_t seed = 0;
  /// Tuning knobs; nullptr = defaults for every algorithm.
  const SolverOptions* options = nullptr;
  /// Pre-solved compact LP relaxation for this instance (supporters
  /// built). Solvers that need a relaxation use it instead of re-solving;
  /// others ignore it.
  const FractionalSolution* shared_relaxation = nullptr;
};

/// Outcome of one solver run on one instance.
struct SolverRun {
  std::string solver;  ///< canonical registry name
  Configuration config;
  ObjectiveBreakdown breakdown;
  double scaled_total = 0.0;
  /// Wall time spent inside Solve() (includes an own LP solve, excludes a
  /// shared one).
  double seconds = 0.0;
  /// LP-relaxation solve time attributable to this run (shared or own);
  /// 0 for solvers that use no relaxation.
  double relaxation_seconds = 0.0;
  bool used_shared_relaxation = false;
  bool proven_optimal = false;  ///< exact solvers only
  int64_t iterations = 0;       ///< rounding/search iterations, if any

  /// Total attributable time: Solve() time plus the shared LP's share
  /// (an own LP solve is already inside `seconds`).
  double TotalSeconds() const {
    return seconds + (used_shared_relaxation ? relaxation_seconds : 0.0);
  }
};

/// One built-in algorithm, built only by the SolverRegistry. Immutable (run
/// state lives on the stack of Solve), so one instance may serve
/// concurrent Solve calls from the thread pool.
class Solver {
 public:
  /// Canonical name, e.g. "AVG-D". Lookup is case-insensitive.
  std::string Name() const { return name_; }

  /// True if this solver consumes the compact LP relaxation for the given
  /// context — the batch engine then provides one through its shared
  /// per-instance cache.
  bool NeedsRelaxation(const SolverContext& context) const;

  /// Runs the algorithm end-to-end on one instance.
  Result<SolverRun> Solve(const SvgicInstance& instance,
                          const SolverContext& context) const;

 private:
  friend class SolverRegistry;

  /// Whether the algorithm rounds the compact relaxation under `options`.
  using RoundsRelaxationFn = bool (*)(const SolverOptions& options);
  /// The algorithm's own lines: sets `run->config` (and `iterations`,
  /// `proven_optimal`). `relaxation` is set iff it rounds one.
  using RunFn = Status (*)(const SvgicInstance& instance,
                           const SolverContext& context,
                           const SolverOptions& options,
                           const FractionalSolution* relaxation,
                           SolverRun* run);

  Solver(std::string name, RoundsRelaxationFn rounds_relaxation, RunFn run)
      : name_(std::move(name)), rounds_relaxation_(rounds_relaxation),
        run_(run) {}

  std::string name_;
  RoundsRelaxationFn rounds_relaxation_;  ///< nullptr: never
  RunFn run_;
};

}  // namespace savg
