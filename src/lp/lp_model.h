// General linear-program model:
//
//   maximize (or minimize)  c' x
//   subject to              row_i: a_i' x  {<=, =, >=}  b_i
//                           lower_j <= x_j <= upper_j
//
// Rows are stored sparsely. This is the interface consumed by the simplex
// solver and the branch-and-bound MIP solver; SVGIC-specific formulations
// are built on top of it in core/lp_formulation.h.

#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/status.h"

namespace savg {

constexpr double kLpInfinity = std::numeric_limits<double>::infinity();

enum class RowType { kLessEqual, kGreaterEqual, kEqual };

/// One sparse coefficient a_ij.
struct LpTerm {
  int var = 0;
  double coef = 0.0;
};

/// One sparse constraint row.
struct LpRow {
  RowType type = RowType::kLessEqual;
  double rhs = 0.0;
  std::vector<LpTerm> terms;
};

/// Sparse LP model builder.
class LpModel {
 public:
  /// Adds a variable with bounds [lower, upper] and objective coefficient
  /// `obj`; returns its index.
  int AddVariable(double lower, double upper, double obj);

  /// Adds a constraint row; returns its index. Terms with duplicate `var`
  /// are allowed and summed by the solver.
  int AddRow(RowType type, double rhs, std::vector<LpTerm> terms);

  void SetMaximize(bool maximize) { maximize_ = maximize; }
  bool maximize() const { return maximize_; }

  void SetObjectiveCoefficient(int var, double obj) { obj_[var] = obj; }
  void SetBounds(int var, double lower, double upper) {
    lower_[var] = lower;
    upper_[var] = upper;
  }

  int num_vars() const { return static_cast<int>(obj_.size()); }
  int num_rows() const { return static_cast<int>(rows_.size()); }
  double objective(int var) const { return obj_[var]; }
  double lower(int var) const { return lower_[var]; }
  double upper(int var) const { return upper_[var]; }
  const LpRow& row(int i) const { return rows_[i]; }
  const std::vector<LpRow>& rows() const { return rows_; }

  /// Objective value of a given point (no feasibility check).
  double ObjectiveValue(const std::vector<double>& x) const;

  /// Max constraint/bound violation of a given point.
  double MaxViolation(const std::vector<double>& x) const;

  std::string DebugString() const;

 private:
  bool maximize_ = true;
  std::vector<double> obj_;
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<LpRow> rows_;
};

/// Basis-membership status of one variable (structural or logical).
enum class VarBasisStatus : uint8_t {
  kNonbasicLower = 0,
  kNonbasicUpper = 1,
  kBasic = 2,
};

/// A simplex basis snapshot: one status per structural variable plus one
/// per row logical (slack). Returned in LpSolution::basis and accepted by
/// SolveLp() as a warm start; a basis is only meaningful for a model with
/// matching variable/row counts (bounds and objective may differ — that is
/// exactly the branch-and-bound / lambda-sweep reuse case).
struct LpBasis {
  std::vector<VarBasisStatus> structural;
  std::vector<VarBasisStatus> logical;

  bool Empty() const { return structural.empty() && logical.empty(); }
  bool Compatible(int num_vars, int num_rows) const {
    return static_cast<int>(structural.size()) == num_vars &&
           static_cast<int>(logical.size()) == num_rows;
  }
};

/// Per-phase wall-time breakdown and pivot-mix counters of a simplex
/// solve. The PR 3 timers showed pricing dominating on the large compact
/// LPs, which is what justified candidate-list pricing and the dual
/// method; the counters flow into the --json= perf artifacts so pricing
/// and warm-start regressions stay visible from CI runs alone.
struct LpStats {
  double pricing_seconds = 0.0;     ///< reduced-cost scan + Devex scoring
  double ratio_test_seconds = 0.0;  ///< leaving-variable selection
  double ftran_seconds = 0.0;       ///< B^-1 a_q solves (+ basic values)
  double btran_seconds = 0.0;       ///< B^-T solves (pricing y, Devex rho)
  double factor_seconds = 0.0;      ///< (re)factorizations + eta updates
  /// Always 0 (the engine has no presolve); kept because perfbench's
  /// replay reads it for its lp.presolve_ms metric.
  double presolve_seconds = 0.0;
  /// Build (row-to-column transpose), basis seeding and solution export:
  /// the solve's work outside the timed phases above.
  double setup_seconds = 0.0;
  // Pivot mix: how the solve's iterations were produced.
  int64_t primal_pivots = 0;    ///< primal pivots + bound flips (phases 1+2)
  int64_t dual_pivots = 0;      ///< dual-simplex pivots
  int64_t dual_bound_flips = 0; ///< bound flips of the dual ratio test
  int64_t bland_pivots = 0;     ///< pivots taken under the Bland fallback
  // Candidate-list pricing effectiveness (PricingMode::kPartial).
  int64_t candidate_hits = 0;       ///< pivots priced from the list alone
  int64_t full_pricing_scans = 0;   ///< full scans (rebuilds + optimality)
  // Eta-file state at solve end, the observable the adaptive
  // refactorization policy acts on (ROADMAP: eta chains in long serving
  // sessions). Summing across solves gives totals; divide by solves for
  // the mean chain length.
  int64_t eta_count = 0;      ///< product-form etas pending at solve end
  int64_t eta_nonzeros = 0;   ///< their stored nonzeros at solve end
  int64_t refactorizations = 0;  ///< basis (re)factorizations performed
  LpStats& operator+=(const LpStats& o) {
    pricing_seconds += o.pricing_seconds;
    ratio_test_seconds += o.ratio_test_seconds;
    ftran_seconds += o.ftran_seconds;
    btran_seconds += o.btran_seconds;
    factor_seconds += o.factor_seconds;
    presolve_seconds += o.presolve_seconds;
    setup_seconds += o.setup_seconds;
    primal_pivots += o.primal_pivots;
    dual_pivots += o.dual_pivots;
    dual_bound_flips += o.dual_bound_flips;
    bland_pivots += o.bland_pivots;
    candidate_hits += o.candidate_hits;
    full_pricing_scans += o.full_pricing_scans;
    eta_count += o.eta_count;
    eta_nonzeros += o.eta_nonzeros;
    refactorizations += o.refactorizations;
    return *this;
  }
};

/// Outcome of an LP solve.
struct LpSolution {
  std::vector<double> x;
  /// Row duals, signed so that c_j - sum_i dual_values[i] a_ij is the
  /// reduced cost of structural j in the model's own objective sense. At
  /// optimality: 0 for basic variables, <= 0 at lower / >= 0 at upper for
  /// a maximization (reversed for minimization).
  std::vector<double> dual_values;
  double objective = 0.0;
  /// Total simplex pivots/bound-flips (phase 1 + phase 2).
  int iterations = 0;
  /// Pivots spent restoring primal feasibility (phase 1 only).
  int phase1_iterations = 0;
  /// Basis (re)factorizations performed.
  int factorizations = 0;
  /// True when a caller-supplied starting basis was actually used.
  bool warm_started = false;
  /// True when the dual simplex repaired the warm basis all the way to
  /// optimality (the primal phases then only verified, pivoting 0 times).
  bool dual_simplex_used = false;
  double solve_seconds = 0.0;
  /// Per-phase time breakdown (pricing vs ratio test vs ftran/btran).
  LpStats stats;
  /// Final basis, reusable as a warm start for a related model.
  LpBasis basis;
};

}  // namespace savg
