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
//  * one basis factorization (lp/basis_lu.h): a sparse LU with
//    product-form eta updates per pivot and rent-or-buy refactorization,
//  * a composite phase 1 that minimizes the sum of primal infeasibilities
//    from any starting basis — which is what makes warm starts work: a
//    caller can hand SolveLp() the final basis of a related model (a
//    branch-and-bound parent, the previous lambda of a sweep) and the
//    solver re-establishes feasibility in a few pivots instead of
//    re-crashing from scratch,
//  * candidate-list (partial) pricing, the one phase-2 rule: phase 2
//    prices a short Devex-scored list of promising nonbasic columns
//    (capacity clamp(2 * sqrt(num_cols), 64, 1024)) whose reduced costs
//    are updated incrementally across pivots, falling back to a full scan
//    only when the list runs dry — optimality is still only ever declared
//    after a full scan; phase 1, whose composite cost changes every
//    pivot, scans every column,
//  * a dual simplex (SolveDual inside the engine) with dual Devex row
//    pricing and a bound-flipping ratio test, used whenever a warm basis
//    is dual-feasible but primal-infeasible — the exact state after a
//    one-bound change in a branch-and-bound child or a rhs-side
//    perturbation — repairing such a basis in far fewer pivots than the
//    composite primal phase 1; cold starts always take phase 1,
//  * Devex (steepest-edge-flavoured) scores in both phases, with a
//    Bland's-rule fallback for anti-cycling.
//
// SolveLp() loads its model into a temporary SimplexEngine. A caller that
// re-solves one LP under value edits (the online session) keeps the engine:
// it skips the row-to-column transpose, and a solve that starts from the
// basis the engine factorized last skips that factorization too.
//
// Intended scale: up to a few thousand rows/columns (the sizes at which the
// paper itself still runs the exact IP/LP). Larger SVGIC instances use the
// projected-subgradient solver in lp/subgradient.h, justified by the
// paper's Corollary 4.2 (a beta-approximate LP yields a 4*beta-approximate
// rounding).

#pragma once

#include <memory>
#include <vector>

#include "lp/lp_model.h"
#include "util/status.h"

namespace savg {

struct SimplexOptions {
  int max_iterations = 200000;
  /// Wall-clock budget, checked on every pivot when finite.
  double time_limit_seconds = 1e18;
  /// Feasibility / reduced-cost tolerance.
  double tolerance = 1e-9;
  /// Hard cap on eta updates between refactorizations (numerical
  /// hygiene). The engine usually refactorizes earlier, by one rule: once
  /// the eta entries Ftran/Btran streamed since the last factorization
  /// cost more than a new one, its set-up and the passes it forces (the
  /// rent-or-buy rule, priced in measured nanoseconds per work counter).
  /// The counters are deterministic (lp/basis_lu.h), never wall-clock, so
  /// solves stay bit-reproducible across machines.
  int refactor_interval = 256;
  /// Switch to Bland's rule after this many non-improving iterations.
  /// Deliberately high: the compact SVGIC LPs walk degenerate plateaus
  /// thousands of pivots long that Devex crosses fine but Bland crawls
  /// over (n=40 bench instance: 17.5k pivots with Devex throughout vs
  /// 200k+ hitting the iteration limit when Bland kicks in at 400). A true
  /// cycle still trips the threshold quickly — cycles are short loops — so
  /// termination stays guaranteed.
  int stall_threshold = 10000;
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

class RevisedSimplex;

/// One LP kept in the simplex's column form across solves. Load() takes a
/// model; SetValues() rewrites its objective and upper bounds in place;
/// Solve() answers exactly what SolveLp() answers on the model as loaded
/// and edited, bit for bit. The engine remembers the basis it factorized
/// last: when a factorization is due on that same basis and no Load()
/// came in between, it drops the eta file instead of factorizing again
/// (LpStats::reused_factorizations). The LU depends only on the basis
/// columns' coefficients, which value edits never touch, so the reuse
/// changes no arithmetic.
class SimplexEngine {
 public:
  SimplexEngine();
  ~SimplexEngine();

  /// Replaces the LP with `model` (the row-to-column transpose). On error
  /// the engine holds no LP.
  Status Load(const LpModel& model);

  /// Rewrites every structural variable's objective coefficient and upper
  /// bound (one entry per variable of the loaded model each). The
  /// constraint matrix, the lower bounds and the rows stay as loaded.
  void SetValues(const std::vector<double>& objective,
                 const std::vector<double>& upper);

  bool loaded() const;

  /// Solves the loaded LP (see SolveLp for the statuses and `warm_start`).
  Result<LpSolution> Solve(const SimplexOptions& options = {},
                           const LpBasis* warm_start = nullptr);

 private:
  std::unique_ptr<RevisedSimplex> impl_;
};

}  // namespace savg
