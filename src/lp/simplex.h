// Sparse revised primal + dual simplex for bounded-variable linear
// programs.
//
// This is the in-repo replacement for the commercial LP solvers (Gurobi /
// CPLEX) the paper uses to obtain the optimal fractional solution X* of the
// SVGIC relaxation (Section 4.1). It implements:
//
//  * bounded-variable primal simplex over flat column-major sparse
//    storage (lp/basis_lu.h ColumnMatrix), with a logical (slack)
//    variable per row — no artificial variables,
//  * a pluggable basis factorization (lp/basis_lu.h): sparse LU with
//    product-form eta updates per pivot and periodic refactorization by
//    default; the legacy explicit dense inverse as a reference backend,
//  * a composite phase 1 that minimizes the sum of primal infeasibilities
//    from any starting basis — which is what makes warm starts work: a
//    caller can hand SolveLp() the final basis of a related model (a
//    branch-and-bound parent, the previous lambda of a sweep) and the
//    solver re-establishes feasibility in a few pivots instead of
//    re-crashing from scratch,
//  * candidate-list (partial) pricing: phase 2 prices a short Devex-scored
//    list of promising nonbasic columns whose reduced costs are updated
//    incrementally across pivots, falling back to a full scan only when
//    the list runs dry — optimality is still only ever declared after a
//    full scan, so the final objective is the full-Devex one; the full
//    scan-every-column path stays selectable via SimplexOptions::pricing,
//  * a dual simplex (SolveDual inside the engine) with a bound-flipping
//    ratio test, used when a warm basis is dual-feasible but
//    primal-infeasible — the exact state after a one-bound change in a
//    branch-and-bound child or a rhs-side perturbation — repairing such a
//    basis in far fewer pivots than the composite primal phase 1
//    (SimplexOptions::warm_start_mode picks auto/primal/dual),
//  * Devex (steepest-edge-flavoured) pricing with the existing Bland's-rule
//    fallback for anti-cycling.
//
// Intended scale: up to a few thousand rows/columns (the sizes at which the
// paper itself still runs the exact IP/LP). Larger SVGIC instances use the
// projected-subgradient solver in lp/subgradient.h, justified by the
// paper's Corollary 4.2 (a beta-approximate LP yields a 4*beta-approximate
// rounding).

#pragma once

#include "lp/lp_model.h"
#include "util/status.h"

namespace savg {

/// Which basis backend SolveLp uses (see lp/basis_lu.h).
enum class SimplexBasisType {
  kSparseLu,  ///< sparse LU + eta file (default)
  kDense,     ///< legacy explicit dense inverse (reference path)
};

/// How phase 2 prices entering columns.
enum class PricingMode {
  /// Score every nonbasic column every iteration (the PR 2 reference
  /// path). O(nnz) per pivot in the pricing scan AND the Devex update.
  kFullDevex,
  /// Candidate-list pricing: keep the top-scored eligible columns from the
  /// last full scan, update their reduced costs incrementally per pivot
  /// (one Btran of the pivot row + a sparse dot per list member), and
  /// rescan everything only when the list runs dry. Optimality is still
  /// only declared after a full scan, so the final objective matches
  /// kFullDevex exactly (up to degenerate-tie vertex choice).
  kPartial,
};

/// How the dual simplex (SolveDual) picks its leaving row.
enum class DualRowPricing {
  /// Dual Devex: pick the row maximizing violation^2 / gamma_r over a
  /// reference framework of row weights, updated incrementally from the
  /// entering column's Ftran image (no extra Btran per pivot). The dual
  /// mirror of primal Devex: it weighs each violation by the steepness of
  /// the dual edge that removes it, which is what cuts the pivot count on
  /// warm-basis repair (the CI gate holds it at <= 0.85x max-violation).
  kDevex,
  /// Pick the row with the largest bound violation (the PR 5 reference
  /// path — textbook, but blind to edge steepness).
  kMaxViolation,
};

/// When the engine folds the product-form eta file back into a fresh LU
/// factorization.
enum class RefactorPolicy {
  /// Adaptive (default): refactorize when the eta file outgrows the
  /// factors (eta_nonzeros > eta_density_limit * factor_nonzeros) or when
  /// the accumulated eta work since the last factorization exceeds what a
  /// refactorization costs (eta_ops > eta_ops_multiplier * factor_ops —
  /// the rent-or-buy rule), with refactor_interval as a hard cap. All
  /// triggers are deterministic work counters (lp/basis_lu.h), never
  /// wall-clock, so solves stay bit-reproducible across machines.
  kAdaptive,
  /// Refactorize every refactor_interval updates (the PR 2-5 behavior).
  kFixedInterval,
};

/// Which method repairs the starting basis. kAuto and kPrimal leave cold
/// solves unchanged (composite phase 1 + primal phase 2); kDual attempts
/// the dual method from ANY dual-feasible start basis, warm or cold.
enum class WarmStartMode {
  /// Dual simplex when the warm basis prices dual-feasible but is primal
  /// infeasible (the branch-and-bound child / bound-perturbation state);
  /// composite primal phase 1 otherwise.
  kAuto,
  /// Always composite phase 1 + primal phase 2 (the PR 2/3 behavior).
  kPrimal,
  /// Dual simplex whenever the start basis is dual-feasible, regardless
  /// of primal state; falls back to the primal path when it is not.
  kDual,
};

struct SimplexOptions {
  int max_iterations = 200000;
  /// Wall-clock budget, checked on every pivot when finite.
  double time_limit_seconds = 1e18;
  /// Feasibility / reduced-cost tolerance.
  double tolerance = 1e-9;
  /// Hard cap on eta updates between refactorizations (numerical
  /// hygiene); the adaptive policy usually refactorizes earlier.
  int refactor_interval = 256;
  /// Refactorization trigger policy (see RefactorPolicy).
  RefactorPolicy refactor_policy = RefactorPolicy::kAdaptive;
  /// kAdaptive: refactorize once eta_nonzeros exceeds this multiple of
  /// the LU factor nonzeros (every solve then pays more for the eta file
  /// than for a fresh factorization's triangles).
  double eta_density_limit = 1.0;
  /// kAdaptive: refactorize once the eta work Ftran/Btran already spent
  /// since the last factorization exceeds this multiple of one
  /// factorization's cost (rent-or-buy amortization).
  double eta_ops_multiplier = 1.0;
  /// Switch to Bland's rule after this many non-improving iterations.
  /// Deliberately high: the compact SVGIC LPs walk degenerate plateaus
  /// thousands of pivots long that Devex crosses fine but Bland crawls
  /// over (n=40 bench instance: 17.5k pivots with Devex throughout vs
  /// 200k+ hitting the iteration limit when Bland kicks in at 400). A true
  /// cycle still trips the threshold quickly — cycles are short loops — so
  /// termination stays guaranteed.
  int stall_threshold = 10000;
  SimplexBasisType basis = SimplexBasisType::kSparseLu;
  /// Devex pricing; false = Dantzig (largest reduced cost).
  bool devex_pricing = true;
  /// Phase-2 pricing strategy (see PricingMode). Partial pricing is the
  /// default: on the m=10000 compact LPs the full per-pivot column scan
  /// dominates LpStats::pricing_seconds (ROADMAP open item).
  PricingMode pricing = PricingMode::kPartial;
  /// Candidate-list capacity for PricingMode::kPartial; <= 0 picks
  /// clamp(2 * sqrt(num_cols), 64, 1024).
  int candidate_list_size = 0;
  /// Warm-basis repair method (see WarmStartMode).
  WarmStartMode warm_start_mode = WarmStartMode::kAuto;
  /// Dual-simplex leaving-row rule (see DualRowPricing).
  DualRowPricing dual_row_pricing = DualRowPricing::kDevex;
  /// Run lp/presolve.h before the simplex and postsolve the result back
  /// to the original space (primal, duals, basis — exactly). Off by
  /// default: callers opt in per solve; warm bases are mapped through the
  /// reduction automatically.
  bool presolve = false;
};

/// Solves `model` to optimality. Returns kInfeasible / kUnbounded /
/// kResourceExhausted (limits) / kNumericalError as appropriate.
///
/// `warm_start` (optional) seeds the initial basis from a previous solve of
/// a model with the same variable/row counts (bounds, objective and rhs may
/// differ). An incompatible or singular warm basis silently falls back to
/// the cold (all-logical) start; LpSolution::warm_started reports whether
/// the seed was used.
Result<LpSolution> SolveLp(const LpModel& model,
                           const SimplexOptions& options = {},
                           const LpBasis* warm_start = nullptr);

}  // namespace savg
