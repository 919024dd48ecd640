#include "lp/simplex.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <vector>

#include "lp/basis_lu.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace savg {

namespace {

/// A column's place in the basis, numbered as VarBasisStatus so that the
/// two convert by a cast.
enum class VarStatus : uint8_t { kAtLower = 0, kAtUpper = 1, kBasic = 2 };
static_assert(static_cast<int>(VarStatus::kAtLower) ==
                  static_cast<int>(VarBasisStatus::kNonbasicLower) &&
              static_cast<int>(VarStatus::kAtUpper) ==
                  static_cast<int>(VarBasisStatus::kNonbasicUpper) &&
              static_cast<int>(VarStatus::kBasic) ==
                  static_cast<int>(VarBasisStatus::kBasic));

/// Sign under which a column's reduced cost d must exceed the tolerance
/// for it to enter, by status: + at lower, - at upper, 0 when basic (so a
/// basic column never passes). Indexed by VarStatus.
constexpr double kPriceSign[] = {1.0, -1.0, 0.0};

/// Per-variable bound violation below this is treated as feasible.
constexpr double kFeasTolerance = 1e-8;
/// Total violation accepted when phase 1 stalls at optimality.
constexpr double kInfeasAccept = 1e-6;
/// Time limits at or above this are "no limit" (skip the clock entirely).
constexpr double kNoTimeLimit = 1e17;
/// Minimum |pivot element| the dual ratio test accepts.
constexpr double kDualPivotTol = 1e-9;
/// Rent-or-buy prices in ns per unit of a work counter, measured on cold
/// solves of the compact LPs of Timik 20x40x3 s1/s3, Yelp 20x200x5 s2 and
/// Yelp 40x2000x10 s8 (Release, 2.1 GHz Xeon):
///  - rent: per eta entry streamed, a pivot's unit-row Btran, column Ftran
///    and c_B Btran cost 1.0-2.5 ns (1.8 over the four LPs) more than the
///    same calls on a fresh LU of the same basis, as much at 10 etas as at
///    100 (Btran's eta loop alone is 0.9-1.4; the rest is the reach the
///    etas widen);
///  - Factorize: 21-22 per row of an all-slack basis (factor_ops = 2n),
///    plus 8.3-9.8 per further op on the optimal bases (13 at 40x2000x10);
///    the pass visits 0.39-0.46 pivots per such op, so the op price
///    carries them;
///  - ComputeBasicValues' pass and Ftran plus the full pricing scan a
///    refactorization forces: 14-19 per column of A (29 at 40x2000x10).
constexpr double kEtaEntryNs = 1.8;
constexpr double kFactorOpNs = 9.0;
constexpr double kFactorRowNs = 3.0;
constexpr double kColumnNs = 16.0;

}  // namespace

/// Internal working form:
///   maximize c'x  s.t.  A x = b,  l <= x <= u
/// with >= rows negated into <= and one logical column per row: [0, inf)
/// for inequalities, fixed [0, 0] for equalities. Columns 0..n_struct-1
/// are structural, then the logicals — no artificial variables; primal
/// feasibility from any basis is restored by the composite phase 1, or by
/// the dual simplex when a warm basis prices dual-feasible.
class RevisedSimplex {
 public:
  bool loaded() const { return loaded_; }

  Status Load(const LpModel& model) {
    Timer load;
    loaded_ = false;
    factored_ = false;
    n_struct_ = model.num_vars();
    num_rows_ = model.num_rows();
    num_cols_ = n_struct_ + num_rows_;
    maximize_ = model.maximize();

    lower_.assign(num_cols_, 0.0);
    upper_.assign(num_cols_, 0.0);
    obj_.resize(n_struct_);
    for (int j = 0; j < n_struct_; ++j) {
      lower_[j] = model.lower(j);
      upper_[j] = model.upper(j);
      obj_[j] = model.objective(j);
      if (!std::isfinite(lower_[j])) {
        return Status::NotImplemented("simplex requires finite lower bounds");
      }
    }

    // Transpose the rows into cols_: count each column's entries, prefix-sum
    // the counts into offsets, then fill row by row, so every column lists
    // its rows in ascending order. A row's repeated terms for one variable
    // merge into one entry (an explicit 0.0 when they cancel); zero
    // coefficients are skipped. `next` holds each column's last counted
    // row while counting, then its fill cursor.
    std::vector<int64_t>& start = cols_.start;
    start.assign(num_cols_ + 1, 0);
    std::vector<int64_t> next(num_cols_, -1);
    for (int i = 0; i < num_rows_; ++i) {
      for (const LpTerm& t : model.row(i).terms) {
        if (t.var < 0 || t.var >= n_struct_) {
          return Status::InvalidArgument("row references unknown variable");
        }
        if (t.coef == 0.0 || next[t.var] == i) continue;
        next[t.var] = i;
        ++start[t.var + 1];
      }
      start[n_struct_ + i + 1] = 1;
    }
    for (int j = 0; j < num_cols_; ++j) start[j + 1] += start[j];
    std::copy(start.begin(), start.end() - 1, next.begin());
    cols_.entries.resize(start[num_cols_]);
    ColumnEntry* entries = cols_.entries.data();
    rhs_.assign(num_rows_, 0.0);
    row_sign_.assign(num_rows_, 1.0);
    for (int i = 0; i < num_rows_; ++i) {
      const LpRow& row = model.row(i);
      const double sign = row.type == RowType::kGreaterEqual ? -1.0 : 1.0;
      row_sign_[i] = sign;
      rhs_[i] = sign * row.rhs;
      for (const LpTerm& t : row.terms) {
        const double coef = sign * t.coef;
        if (coef == 0.0) continue;
        int64_t& at = next[t.var];
        if (at > start[t.var] && entries[at - 1].row == i) {
          entries[at - 1].coef += coef;
        } else {
          entries[at++] = {i, coef};
        }
      }
      const int logical = n_struct_ + i;
      entries[next[logical]++] = {i, 1.0};
      lower_[logical] = 0.0;
      upper_[logical] = row.type == RowType::kEqual ? 0.0 : kLpInfinity;
    }
    cand_capacity_ = std::clamp(
        static_cast<int>(2.0 * std::sqrt(static_cast<double>(num_cols_))),
        64, 1024);
    loaded_ = true;
    load_seconds_ = load.ElapsedSeconds();
    return Status::OK();
  }

  void SetValues(const std::vector<double>& objective,
                 const std::vector<double>& upper) {
    assert(static_cast<int>(objective.size()) == n_struct_ &&
           static_cast<int>(upper.size()) == n_struct_);
    std::copy(objective.begin(), objective.end(), obj_.begin());
    std::copy(upper.begin(), upper.end(), upper_.begin());
  }

  Result<LpSolution> Run(const SimplexOptions& options,
                         const LpBasis* warm_start) {
    if (!loaded_) return Status::FailedPrecondition("no LP loaded");
    // The passes' scratch lives for one solve. Kept by idle engines it
    // raised perfbench's serve-churn peak RSS by ~0.3-0.6 MB; freeing it
    // costs the warm solve ~3%.
    struct ScratchScope {
      RevisedSimplex* simplex;
      ~ScratchScope() { simplex->ReleaseScratch(); }
    } scratch_scope{this};
    Timer setup;
    opt_ = options;
    warm_ = warm_start;
    for (int j = 0; j < n_struct_; ++j) {
      if (upper_[j] < lower_[j] - opt_.tolerance) {
        return Status::Infeasible("variable with empty bound interval");
      }
    }
    ResetSolveState();
    Timer timer;
    if (!TryWarmBasis()) ColdBasis();
    stats_.setup_seconds = setup.ElapsedSeconds() + load_seconds_;
    load_seconds_ = 0.0;
    Status factored = Refactorize();
    if (!factored.ok()) {
      if (!warm_used_) return factored;
      // A singular warm basis falls back to the cold start.
      warm_used_ = false;
      setup.Reset();
      ColdBasis();
      stats_.setup_seconds += setup.ElapsedSeconds();
      factored = Refactorize();
      if (!factored.ok()) return factored;
    }

    // Dual simplex: when a warm basis is primal-infeasible but prices
    // dual-feasible under the real objective (a branch-and-bound child, a
    // bound or rhs perturbation), repairing primal feasibility dually
    // costs far fewer pivots than composite phase 1. The primal phases
    // below then merely verify — phase 1 no-ops on the feasible basis and
    // phase 2's full pricing scan certifies optimality, so the final
    // objective is identical to the primal path by construction. Cold
    // starts always take composite phase 1.
    bool dual_optimal = false;
    if (warm_used_ && !PrimalFeasible()) {
      SetPhase2Cost();
      if (DualFeasible()) {
        Status dual = SolveDual(&timer, &dual_optimal);
        if (!dual.ok()) return dual;
      }
    }

    // Phase 1: restore primal feasibility. It would stop before its first
    // pivot on a feasible basis, so it runs only on an infeasible one.
    if (!PrimalFeasible()) {
      std::fill(cost_.begin(), cost_.end(), 0.0);
      const int before_phase1 = total_iterations_;
      Status p1 = Iterate(&timer, /*phase1=*/true);
      if (!p1.ok()) return p1;
      phase1_iterations_ = total_iterations_ - before_phase1;
    }

    // Phase 2: optimize the real objective.
    SetPhase2Cost();
    Status p2 = Iterate(&timer, /*phase1=*/false);
    if (!p2.ok()) return p2;

    setup.Reset();
    LpSolution sol;
    LoadStructuralValues();
    sol.x.assign(values_.begin(), values_.begin() + n_struct_);
    double objective = 0.0;
    for (int j = 0; j < n_struct_; ++j) objective += obj_[j] * sol.x[j];
    sol.objective = objective;
    sol.dual_values = ExportDuals();
    stats_.eta_count = factor_.eta_count();
    stats_.eta_nonzeros = factor_.eta_nonzeros();
    sol.iterations = total_iterations_;
    sol.phase1_iterations = phase1_iterations_;
    sol.warm_started = warm_used_;
    sol.dual_simplex_used = dual_optimal;
    sol.basis = ExportBasis();
    sol.solve_seconds = timer.ElapsedSeconds();
    stats_.setup_seconds += setup.ElapsedSeconds();
    sol.stats = stats_;
    return sol;
  }

 private:
  // ---- setup -------------------------------------------------------------

  void ReleaseScratch() {
    std::vector<double>().swap(y_);
    std::vector<int>().swap(listed_);
    std::vector<double>().swap(values_);
  }

  /// Clears everything one solve leaves behind except the factorization,
  /// which Refactorize() reuses only for the basis it was made from.
  /// status_, basis_ and cost_ are only sized: the start basis and each
  /// phase write every entry before any read.
  void ResetSolveState() {
    status_.resize(num_cols_);
    cost_.resize(num_cols_);
    basis_.resize(num_rows_);
    pos_of_basic_.assign(num_cols_, -1);
    cand_.clear();
    cand_score_.clear();
    warm_used_ = false;
    total_iterations_ = 0;
    phase1_iterations_ = 0;
    stats_ = LpStats();
  }

  /// All logicals basic: the identity basis, always factorizable.
  void ColdBasis() {
    for (int j = 0; j < num_cols_; ++j) {
      status_[j] = VarStatus::kAtLower;
      pos_of_basic_[j] = -1;
    }
    for (int i = 0; i < num_rows_; ++i) {
      const int logical = n_struct_ + i;
      basis_[i] = logical;
      status_[logical] = VarStatus::kBasic;
      pos_of_basic_[logical] = i;
    }
  }

  /// Seeds statuses from the caller's basis; repairs the basic set to
  /// exactly num_rows_ columns. Returns false when no usable warm basis
  /// was supplied (caller then cold-starts).
  bool TryWarmBasis() {
    if (warm_ == nullptr || warm_->Empty() ||
        !warm_->Compatible(n_struct_, num_rows_)) {
      return false;
    }
    // Statuses by selects, and the basic columns collected into listed_
    // without a branch: both vary at random from column to column.
    std::vector<int>& basics = listed_;
    basics.resize(num_cols_);
    int count = 0;
    auto apply = [&](const std::vector<VarBasisStatus>& from, int first) {
      const int size = static_cast<int>(from.size());
      for (int i = 0; i < size; ++i) {
        const int col = first + i;
        const bool basic = from[i] == VarBasisStatus::kBasic;
        // An upper status on an unbounded column means its lower bound.
        const bool at_upper = (from[i] == VarBasisStatus::kNonbasicUpper) &
                              std::isfinite(upper_[col]);
        status_[col] = static_cast<VarStatus>(2 * basic + at_upper);
        basics[count] = col;
        count += basic;
      }
    };
    apply(warm_->structural, 0);
    apply(warm_->logical, n_struct_);
    // Too many: demote from the tail (logicals first, keeping the
    // structural part of the warm basis). Too few: promote nonbasic
    // logicals.
    while (count > num_rows_) status_[basics[--count]] = VarStatus::kAtLower;
    for (int i = 0; i < num_rows_ && count < num_rows_; ++i) {
      const int logical = n_struct_ + i;
      if (status_[logical] != VarStatus::kBasic) {
        status_[logical] = VarStatus::kBasic;
        basics[count++] = logical;
      }
    }
    if (count != num_rows_) return false;
    for (int i = 0; i < num_rows_; ++i) {
      basis_[i] = basics[i];
      pos_of_basic_[basics[i]] = i;
    }
    warm_used_ = true;
    return true;
  }

  /// Row duals in the model's own sense: y solves B' y = c_B under the
  /// phase-2 internal cost, mapped back through the internal
  /// sign-normalizations (objective sense s, >=-row negation s_i) so that
  /// c_j - sum_i y_i a_ij is structural j's reduced cost in the original
  /// model. Called at the end of Run(), right after phase 2 proved
  /// optimality by a full pricing scan: y_ is that scan's solve, on the
  /// same basis, factorization and phase-2 cost_.
  std::vector<double> ExportDuals() const {
    std::vector<double> y(num_rows_);
    const double sense = maximize_ ? 1.0 : -1.0;
    for (int i = 0; i < num_rows_; ++i) y[i] = y_[i] * (sense * row_sign_[i]);
    return y;
  }

  LpBasis ExportBasis() const {
    auto map = [](VarStatus s) { return static_cast<VarBasisStatus>(s); };
    LpBasis basis;
    basis.structural.resize(n_struct_);
    std::transform(status_.begin(), status_.begin() + n_struct_,
                   basis.structural.begin(), map);
    basis.logical.resize(num_rows_);
    std::transform(status_.begin() + n_struct_, status_.end(),
                   basis.logical.begin(), map);
    return basis;
  }

  // ---- accessors ----------------------------------------------------------

  /// The value of a nonbasic column: the bound its status names.
  double Value(int j) const {
    return status_[j] == VarStatus::kAtUpper ? upper_[j] : lower_[j];
  }

  /// values_[j] := the current value of every structural column j: its
  /// bound by a select, then the basic values scattered over it (those of
  /// basic logicals into the spare slot values_[n_struct_], unread).
  void LoadStructuralValues() {
    values_.resize(n_struct_ + 1);
    for (int j = 0; j < n_struct_; ++j) values_[j] = Value(j);
    for (int pos = 0; pos < num_rows_; ++pos) {
      values_[std::min(basis_[pos], n_struct_)] = basic_value_[pos];
    }
  }

  void SetPhase2Cost() {
    const double sign = maximize_ ? 1.0 : -1.0;
    std::fill(cost_.begin(), cost_.end(), 0.0);
    for (int j = 0; j < n_struct_; ++j) cost_[j] = sign * obj_[j];
  }

  /// Writes c_B into *y (num_rows_ entries; a -0.0 cost as +0.0) and lists
  /// its nonzero positions in *nz. Returns false when every basic cost is
  /// zero.
  bool LoadBasicCosts(std::vector<double>* y, std::vector<int>* nz) const {
    nz->resize(num_rows_);
    int count = 0;
    for (int pos = 0; pos < num_rows_; ++pos) {
      const double cb = cost_[basis_[pos]];
      const bool nonzero = cb != 0.0;
      (*y)[pos] = nonzero ? cb : 0.0;  // a -0.0 cost stays out of y
      (*nz)[count] = pos;
      count += nonzero;
    }
    nz->resize(count);
    return count > 0;
  }

  /// Loads column j into the all-zero vector *v and lists its rows in *nz.
  void LoadColumn(int j, std::vector<double>* v, std::vector<int>* nz) const {
    nz->clear();
    for (const auto& [row, a] : cols_[j]) {
      (*v)[row] = a;
      nz->push_back(row);
    }
  }

  /// Lists every row: the pattern of a vector the factorization could not
  /// track.
  void ListAllRows(std::vector<int>* nz) const {
    nz->resize(num_rows_);
    std::iota(nz->begin(), nz->end(), 0);
  }

  /// Factorizes the current basis and recomputes x_B = B^-1 (b - N x_N).
  /// When factor_ already holds the LU of this very basis of the loaded
  /// matrix, dropping its eta file gives the factorization a fresh
  /// Factorize() would build, so that is all it does.
  Status Refactorize() {
    Timer t;
    if (factored_ && basis_ == factored_basis_) {
      factor_.DiscardEtas();
      ++stats_.reused_factorizations;
    } else {
      ++stats_.refactorizations;
      factored_ = false;
      Status st = factor_.Factorize(cols_, basis_);
      if (!st.ok()) return st;
      factored_basis_ = basis_;
      factored_ = true;
    }
    ComputeBasicValues();
    stats_.factor_seconds += t.ElapsedSeconds();
    // Incrementally maintained reduced costs drift past a refactorization
    // boundary; force the next pricing decision onto fresh numbers.
    cand_.clear();
    cand_score_.clear();
    return Status::OK();
  }

  /// Rent-or-buy refactorization, with refactor_interval as the hard cap:
  /// fold the eta file back into a fresh LU once the eta entries streamed
  /// since the last factorization cost more than a new one would. Every
  /// input is a deterministic work counter — no wall clock — so the
  /// decision replays identically across machines and worker counts.
  bool ShouldRefactor() const {
    const int etas = factor_.eta_count();
    if (etas == 0) return false;
    if (etas >= opt_.refactor_interval) return true;
    return kEtaEntryNs * factor_.eta_ops_since_factor() >
           kFactorOpNs * factor_.factor_ops() + kFactorRowNs * num_rows_ +
               kColumnNs * num_cols_;
  }

  /// A nonbasic logical sits at 0, the one finite bound it has, so only
  /// the nonbasic structural columns off 0 move the rhs. They are listed
  /// first, by selects and without a branch (statuses vary at random from
  /// column to column).
  void ComputeBasicValues() {
    listed_.resize(n_struct_);
    values_.resize(n_struct_ + 1);
    int count = 0;
    for (int j = 0; j < n_struct_; ++j) {
      const double v = status_[j] == VarStatus::kBasic ? 0.0 : Value(j);
      listed_[count] = j;
      values_[count] = v;
      count += v != 0.0;
    }
    basic_value_.assign(rhs_.begin(), rhs_.end());
    for (int i = 0; i < count; ++i) {
      const double v = values_[i];
      for (const auto& [row, a] : cols_[listed_[i]]) {
        basic_value_[row] -= a * v;
      }
    }
    factor_.Ftran(&basic_value_);
  }

  bool PrimalFeasible() const {
    for (int pos = 0; pos < num_rows_; ++pos) {
      const int j = basis_[pos];
      const double v = basic_value_[pos];
      if (v < lower_[j] - kFeasTolerance || v > upper_[j] + kFeasTolerance) {
        return false;
      }
    }
    return true;
  }

  /// Objective-improvement slack of the stall detector, derived from the
  /// feasibility tolerance instead of a hard-coded epsilon so callers that
  /// loosen `tolerance` do not see degenerate plateaus masked by
  /// sub-tolerance "improvements" (and vice versa). Degenerate pivots
  /// improve by exactly 0, so they always count toward the Bland trigger.
  double StallSlack(double reference) const {
    return opt_.tolerance * std::max(1.0, std::abs(reference));
  }

  // ---- dual simplex --------------------------------------------------------

  /// Recomputes every reduced cost d_j = c_j - y' A_j from scratch into
  /// d_. The dual simplex reads d_ of nonbasic columns only, so basic ones
  /// are computed too rather than tested for.
  void RecomputeReducedCosts() {
    Timer t;
    std::vector<double> y(num_rows_);
    const bool any = LoadBasicCosts(&y, &nz_);
    if (any) factor_.Btran(&y, nz_);
    stats_.btran_seconds += t.ElapsedSeconds();
    t.Reset();
    d_.resize(num_cols_);
    for (int j = 0; j < n_struct_; ++j) {
      double d = cost_[j];
      if (any) {
        for (const auto& [row, a] : cols_[j]) d -= y[row] * a;
      }
      d_[j] = d;
    }
    for (int i = 0; i < num_rows_; ++i) {
      // A logical's one entry: 1.0 on its own row.
      d_[n_struct_ + i] = any ? cost_[n_struct_ + i] - y[i]
                              : cost_[n_struct_ + i];
    }
    stats_.pricing_seconds += t.ElapsedSeconds();
  }

  /// True when the current basis is dual-feasible under cost_ (within a
  /// slightly loosened tolerance: a parent solve declares optimality with
  /// reduced costs up to `tolerance` on the wrong side, and those must
  /// still count as dual-feasible here). Fills d_ as a side effect.
  bool DualFeasible() {
    RecomputeReducedCosts();
    const double dtol = 10.0 * opt_.tolerance;
    for (int j = 0; j < num_cols_; ++j) {
      // Basic columns never pass the signed test (kPriceSign); fixed ones
      // are dual-feasible whatever d.
      if (kPriceSign[static_cast<int>(status_[j])] * d_[j] > dtol &&
          !(upper_[j] - lower_[j] < opt_.tolerance)) {
        return false;
      }
    }
    return true;
  }

  /// Dual simplex over the real (phase-2) objective from the current
  /// dual-feasible basis: repeatedly drives the most-violated basic
  /// variable to its violated bound, choosing the entering column by the
  /// bound-flipping dual ratio test (boxed columns whose whole range
  /// cannot absorb the infeasibility flip to their other bound without a
  /// basis change). Reduced costs are maintained incrementally from the
  /// pivot row (one Btran per pivot — the path the ROADMAP notes was
  /// already in place).
  ///
  /// On success *optimal is true and the basis is primal- and
  /// dual-feasible. A stall, a suspected-infeasible row, or an unstable
  /// pivot returns OK with *optimal false: the caller falls back to the
  /// composite primal phase 1 from wherever the dual stopped, which owns
  /// the definitive infeasibility verdict. Only hard limit/numerical
  /// failures propagate as errors.
  Status SolveDual(Timer* timer, bool* optimal) {
    *optimal = false;
    const bool timed = opt_.time_limit_seconds < kNoTimeLimit;
    // Dual Devex reference weights, one per basis position. Like the
    // primal framework they start the reference frame at 1 and only ever
    // grow until a reset.
    dual_gamma_.assign(num_rows_, 1.0);
    int stall = 0;
    // Finite sentinel: StallSlack(inf) would poison the comparison.
    double best_infeas = 1e300;
    int bad_pivots = 0;
    std::vector<double> rho(num_rows_), w(num_rows_), alpha(num_cols_, 0.0);
    w_nz_.clear();  // w is all zero outside w_nz_
    std::vector<double> flip_rhs(num_rows_);
    struct DualCandidate {
      int col;
      double step;   ///< |dual step| the pivot would take
      double alpha;  ///< pivot-row entry
    };
    std::vector<DualCandidate> cands;
    std::vector<int> flips;

    for (;;) {
      // Leaving row by dual Devex: weigh each violation by its reference
      // weight (score viol^2 / gamma_r) so rows whose dual edge is steep —
      // large true infeasibility per unit of |B^-T e_r| — win, mirroring
      // primal Devex's d^2 / gamma column rule.
      int r = -1;
      double viol = 0.0;
      bool below = false;
      double best_score = 0.0;
      double total_infeas = 0.0;
      for (int pos = 0; pos < num_rows_; ++pos) {
        const int bj = basis_[pos];
        const double v = basic_value_[pos];
        const double under = lower_[bj] - v;
        const double over = std::isfinite(upper_[bj]) ? v - upper_[bj]
                                                      : -kLpInfinity;
        if (under > 0.0) total_infeas += under;
        if (over > 0.0) total_infeas += over;
        const bool is_below = under > over;
        const double infeas = is_below ? under : over;
        if (infeas <= kFeasTolerance) continue;
        const double score = infeas * infeas / dual_gamma_[pos];
        if (score > best_score) {
          best_score = score;
          viol = infeas;
          r = pos;
          below = is_below;
        }
      }
      if (r < 0) {
        *optimal = true;
        return Status::OK();
      }
      if (total_iterations_ >= opt_.max_iterations) {
        return Status::ResourceExhausted("simplex iteration limit");
      }
      if (timed && timer->ElapsedSeconds() > opt_.time_limit_seconds) {
        return Status::ResourceExhausted("simplex time limit");
      }
      // Stall detection mirrors the primal rule (tolerance-derived slack
      // on the monotone quantity, here the total infeasibility).
      if (total_infeas < best_infeas - StallSlack(best_infeas)) {
        stall = 0;
        best_infeas = total_infeas;
      } else {
        ++stall;
      }
      if (stall > opt_.stall_threshold) return Status::OK();  // fall back

      // Pivot row in nonbasic coordinates: alpha_j = rho' A_j with
      // rho = B^-T e_r.
      Timer phase_timer;
      rho.assign(num_rows_, 0.0);
      rho[r] = 1.0;
      nz_.assign(1, r);
      factor_.Btran(&rho, nz_);
      stats_.btran_seconds += phase_timer.ElapsedSeconds();

      // Eligible entering columns: moving them toward/away from their
      // bound must push x_B(r) toward the violated bound. dir folds the
      // below/above cases into one sign test.
      phase_timer.Reset();
      const double dir = below ? 1.0 : -1.0;
      cands.clear();
      for (int j = 0; j < num_cols_; ++j) {
        alpha[j] = 0.0;
        if (status_[j] == VarStatus::kBasic) continue;
        if (upper_[j] - lower_[j] < opt_.tolerance) continue;  // fixed
        double a = 0.0;
        for (const auto& [row, coef] : cols_[j]) a += rho[row] * coef;
        alpha[j] = a;
        const bool eligible = status_[j] == VarStatus::kAtLower
                                  ? dir * a < -kDualPivotTol
                                  : dir * a > kDualPivotTol;
        if (!eligible) continue;
        // The admissible dual step toward this column's sign flip;
        // tolerance noise can make it marginally negative.
        cands.push_back({j, std::max(0.0, dir * (d_[j] / a)), a});
      }
      stats_.pricing_seconds += phase_timer.ElapsedSeconds();
      if (cands.empty()) return Status::OK();  // suspected infeasible

      // Bound-flipping ratio test: walk candidates by increasing dual
      // step; a boxed column whose full range cannot absorb the remaining
      // infeasibility flips to its other bound (no basis change) and the
      // walk continues — its reduced cost crosses zero before the chosen
      // step, so dual feasibility survives the flip.
      phase_timer.Reset();
      std::sort(cands.begin(), cands.end(),
                [](const DualCandidate& a, const DualCandidate& b) {
                  if (a.step != b.step) return a.step < b.step;
                  return std::abs(a.alpha) > std::abs(b.alpha);
                });
      double remaining = viol;
      int entering = -1;
      flips.clear();
      for (const DualCandidate& cand : cands) {
        const double range = upper_[cand.col] - lower_[cand.col];
        const double capacity =
            std::isfinite(range) ? range * std::abs(cand.alpha) : kLpInfinity;
        if (capacity < remaining - kFeasTolerance) {
          flips.push_back(cand.col);
          remaining -= capacity;
        } else {
          entering = cand.col;
          break;
        }
      }
      stats_.ratio_test_seconds += phase_timer.ElapsedSeconds();
      if (entering < 0) return Status::OK();  // flips cannot repair: fall back

      // Entering column in basic coordinates — validated BEFORE the flips
      // are applied, so an aborted pivot leaves the iterate untouched
      // (flips are only dual-feasible together with the dual step).
      phase_timer.Reset();
      for (int pos : w_nz_) w[pos] = 0.0;
      LoadColumn(entering, &w, &w_nz_);
      if (!factor_.Ftran(&w, &w_nz_)) ListAllRows(&w_nz_);
      stats_.ftran_seconds += phase_timer.ElapsedSeconds();
      const double alpha_rq = w[r];
      if (!std::isfinite(alpha_rq) || std::abs(alpha_rq) < kDualPivotTol ||
          alpha_rq * alpha[entering] < 0.0) {
        // The Ftran disagrees with the eta-updated row scan: refactorize
        // once and retry the row; a second failure abandons the dual.
        if (++bad_pivots > 1) return Status::OK();
        Status refactored = Refactorize();
        if (!refactored.ok()) return refactored;
        RecomputeReducedCosts();
        continue;
      }
      bad_pivots = 0;

      // Apply the planned flips (atomically, only now that the pivot is
      // committed): x_B -= B^-1 (sum of flipped-column deltas).
      if (!flips.empty()) {
        phase_timer.Reset();
        flip_rhs.assign(num_rows_, 0.0);
        for (int c : flips) {
          const double range = upper_[c] - lower_[c];
          const double step =
              status_[c] == VarStatus::kAtLower ? range : -range;
          status_[c] = status_[c] == VarStatus::kAtLower ? VarStatus::kAtUpper
                                                         : VarStatus::kAtLower;
          for (const auto& [row, coef] : cols_[c]) {
            flip_rhs[row] += coef * step;
          }
        }
        factor_.Ftran(&flip_rhs);
        for (int pos = 0; pos < num_rows_; ++pos) {
          basic_value_[pos] -= flip_rhs[pos];
        }
        stats_.ftran_seconds += phase_timer.ElapsedSeconds();
      }

      // Primal step driving x_B(r) exactly onto its violated bound, and
      // the dual step from the entering column's exact reduced cost
      // (recomputed through w to anchor the incremental d_ updates).
      const int leaving = basis_[r];
      const double bound_r = below ? lower_[leaving] : upper_[leaving];
      const double t_q = (basic_value_[r] - bound_r) / alpha_rq;
      double d_q = cost_[entering];
      for (int pos : w_nz_) {
        const double cb = cost_[basis_[pos]];
        if (cb != 0.0) d_q -= cb * w[pos];
      }
      const double theta = d_q / alpha_rq;

      phase_timer.Reset();
      for (int j = 0; j < num_cols_; ++j) {
        if (status_[j] == VarStatus::kBasic || alpha[j] == 0.0) continue;
        d_[j] -= theta * alpha[j];
      }
      stats_.pricing_seconds += phase_timer.ElapsedSeconds();

      // Dual Devex weight update, free off the entering column's Ftran
      // image w (w_i = alpha-row entry of basic position i against the
      // entering column): gamma_i = max(gamma_i, (w_i / alpha_rq)^2 *
      // gamma_r) for i != r, and the position r weight restarts at
      // max(gamma_r / alpha_rq^2, 1) for its new basic variable. Reset
      // the reference framework when weights blow up, as in the primal.
      const double gamma_r = dual_gamma_[r];
      const double inv_rq2 = 1.0 / (alpha_rq * alpha_rq);
      double max_gamma = 1.0;
      for (int pos : w_nz_) {
        if (pos == r || w[pos] == 0.0) continue;
        const double cand = w[pos] * w[pos] * inv_rq2 * gamma_r;
        if (cand > dual_gamma_[pos]) dual_gamma_[pos] = cand;
        if (dual_gamma_[pos] > max_gamma) max_gamma = dual_gamma_[pos];
      }
      dual_gamma_[r] = std::max(gamma_r * inv_rq2, 1.0);
      if (std::max(max_gamma, dual_gamma_[r]) > 1e10) {
        dual_gamma_.assign(num_rows_, 1.0);
      }

      // Pivot: entering becomes basic in row r; leaving lands on the bound
      // it violated.
      const double x_q_old = Value(entering);
      if (t_q != 0.0) {
        for (int pos : w_nz_) basic_value_[pos] -= t_q * w[pos];
      }
      status_[leaving] = below ? VarStatus::kAtLower : VarStatus::kAtUpper;
      pos_of_basic_[leaving] = -1;
      d_[leaving] = -theta;
      basis_[r] = entering;
      pos_of_basic_[entering] = r;
      status_[entering] = VarStatus::kBasic;
      d_[entering] = 0.0;
      basic_value_[r] = x_q_old + t_q;
      ++total_iterations_;
      ++stats_.dual_pivots;

      phase_timer.Reset();
      Status updated = factor_.Update(w, w_nz_, r);
      stats_.factor_seconds += phase_timer.ElapsedSeconds();
      if (!updated.ok() || ShouldRefactor()) {
        Status refactored = Refactorize();
        if (!refactored.ok()) return refactored;
        RecomputeReducedCosts();
      }
    }
  }

  // ---- primal iteration ----------------------------------------------------

  /// Phase-1 cost: push each out-of-bounds basic variable back toward its
  /// violated bound. Returns the total violation.
  double SetPhase1Cost() {
    std::fill(cost_.begin(), cost_.end(), 0.0);
    double infeas = 0.0;
    for (int pos = 0; pos < num_rows_; ++pos) {
      const int j = basis_[pos];
      const double v = basic_value_[pos];
      if (v < lower_[j] - kFeasTolerance) {
        cost_[j] = 1.0;  // maximize => increase v
        infeas += lower_[j] - v;
      } else if (v > upper_[j] + kFeasTolerance) {
        cost_[j] = -1.0;
        infeas += v - upper_[j];
      }
    }
    return infeas;
  }

  /// Sum of cost_[j] * x_j over the columns whose value is not 0, in
  /// column order. Phase 2 only: logicals cost 0 there, and adding their
  /// terms (+-0.0) to a sum that starts at +0.0 would change no bit.
  double CurrentObjective() {
    LoadStructuralValues();
    listed_.resize(n_struct_);
    int count = 0;
    for (int j = 0; j < n_struct_; ++j) {
      listed_[count] = j;
      count += values_[j] != 0.0;
    }
    double acc = 0.0;
    for (int i = 0; i < count; ++i) {
      const int j = listed_[i];
      acc += cost_[j] * values_[j];
    }
    return acc;
  }

  /// One candidate of the partial-pricing list: a nonbasic column plus its
  /// incrementally maintained reduced cost.
  struct PricingCandidate {
    int col = -1;
    double d = 0.0;
  };

  /// Scans the candidate list only, pruning members that became basic,
  /// fixed, or ineligible. Returns the best entering column or -1 (list
  /// dry — caller runs a full scan).
  int PriceCandidates(int* direction, double* d_enter) {
    int best = -1;
    double best_score = 0.0;
    size_t out = 0;
    for (const PricingCandidate& cand : cand_) {
      const int j = cand.col;
      if (status_[j] == VarStatus::kBasic) continue;
      if (upper_[j] - lower_[j] < opt_.tolerance) continue;
      int dir = 0;
      if (status_[j] == VarStatus::kAtLower && cand.d > opt_.tolerance) {
        dir = +1;
      } else if (status_[j] == VarStatus::kAtUpper &&
                 cand.d < -opt_.tolerance) {
        dir = -1;
      } else {
        continue;  // pruned: no longer an improving column
      }
      cand_[out++] = cand;
      const double score = cand.d * cand.d / devex_[j];
      if (score > best_score) {
        best_score = score;
        best = j;
        *direction = dir;
        *d_enter = cand.d;
      }
    }
    cand_.resize(out);
    return best;
  }

  void DropCandidate(int col) {
    for (size_t i = 0; i < cand_.size(); ++i) {
      if (cand_[i].col == col) {
        cand_[i] = cand_.back();
        cand_.pop_back();
        return;
      }
    }
  }

  /// Full pricing scan: recomputes y_ = B^-T c_B and every nonbasic
  /// reduced cost. Returns the entering column (Bland: first eligible;
  /// otherwise best Devex score) or -1 when none is eligible (optimal).
  /// With `rebuild_list` the top-scored eligible columns are kept as the
  /// new candidate list.
  int FullPricingScan(bool bland, bool rebuild_list, int* direction,
                      double* d_enter) {
    Timer phase_timer;
    y_.resize(num_rows_);
    const bool any_cost = LoadBasicCosts(&y_, &nz_);
    if (any_cost) factor_.Btran(&y_, nz_);
    stats_.btran_seconds += phase_timer.ElapsedSeconds();

    phase_timer.Reset();
    ++stats_.full_pricing_scans;
    cand_.clear();
    cand_score_.clear();
    int entering = -1;
    *direction = 0;
    double best_score = 0.0;
    for (int j = 0; j < num_cols_; ++j) {
      // Skipping a basic column costs a branch but saves its dot product,
      // which a cold solve's many full scans feel more (paired runs:
      // computing d for every column was slower cold, no faster warm).
      const VarStatus status = status_[j];
      if (status == VarStatus::kBasic) continue;
      double d = cost_[j];
      if (any_cost) {
        if (j < n_struct_) {
          for (const auto& [row, a] : cols_[j]) d -= y_[row] * a;
        } else {
          d -= y_[j - n_struct_];  // a logical's one entry: 1.0 on its row
        }
      }
      // One signed compare rules out the ineligible columns; only the few
      // that pass check for a fixed column.
      if (!(kPriceSign[static_cast<int>(status)] * d > opt_.tolerance)) {
        continue;
      }
      if (upper_[j] - lower_[j] < opt_.tolerance) continue;  // fixed
      const int dir = status == VarStatus::kAtLower ? +1 : -1;
      if (bland) {  // first eligible index
        entering = j;
        *direction = dir;
        *d_enter = d;
        break;
      }
      const double score = d * d / devex_[j];
      if (rebuild_list) PushCandidate({j, d}, score);
      if (score > best_score) {
        best_score = score;
        entering = j;
        *direction = dir;
        *d_enter = d;
      }
    }
    stats_.pricing_seconds += phase_timer.ElapsedSeconds();
    return entering;
  }

  /// Keeps the candidate list at the top-`cand_capacity_` scores seen so
  /// far in this scan (cheap replace-the-minimum; the list is small).
  void PushCandidate(PricingCandidate cand, double score) {
    if (static_cast<int>(cand_.size()) < cand_capacity_) {
      cand_.push_back(cand);
      cand_score_.push_back(score);
      return;
    }
    size_t worst = 0;
    for (size_t i = 1; i < cand_score_.size(); ++i) {
      if (cand_score_[i] < cand_score_[worst]) worst = i;
    }
    if (score > cand_score_[worst]) {
      cand_[worst] = cand;
      cand_score_[worst] = score;
    }
  }

  Status Iterate(Timer* timer, bool phase1) {
    const bool timed = opt_.time_limit_seconds < kNoTimeLimit;
    int stall = 0;
    // Finite sentinel: StallSlack(-inf) would poison the comparison.
    double last_obj = -1e300;
    devex_.assign(num_cols_, 1.0);
    std::vector<double> w(num_rows_), rho;
    w_nz_.clear();  // w is all zero outside w_nz_
    // Partial pricing only applies to phase 2: the composite phase-1 cost
    // vector changes every iteration, which invalidates incrementally
    // maintained reduced costs.
    const bool partial = !phase1;
    cand_.clear();
    cand_score_.clear();
    // Incrementally tracked objective (phase 2): recomputing
    // CurrentObjective() per iteration would cost O(num_cols), the very
    // scan the candidate list exists to avoid.
    double tracked_obj = partial ? CurrentObjective() : 0.0;

    for (;;) {
      if (phase1) {
        const double infeas = SetPhase1Cost();
        if (infeas <= kFeasTolerance) return Status::OK();
      }
      if (total_iterations_ >= opt_.max_iterations) {
        return Status::ResourceExhausted("simplex iteration limit");
      }
      if (timed && timer->ElapsedSeconds() > opt_.time_limit_seconds) {
        return Status::ResourceExhausted("simplex time limit");
      }
      const double cur = phase1 ? -CurrentInfeasibility()
                                : (partial ? tracked_obj : CurrentObjective());
      if (cur > last_obj + StallSlack(last_obj)) {
        stall = 0;
        last_obj = cur;
      } else {
        ++stall;
      }
      const bool bland = stall > opt_.stall_threshold;

      // Pricing: candidate list first (phase 2), full scan when the list
      // is dry, Bland always scans fully.
      int entering = -1;
      int direction = 0;
      double d_enter = 0.0;
      if (partial && !bland) {
        Timer cand_timer;
        entering = PriceCandidates(&direction, &d_enter);
        stats_.pricing_seconds += cand_timer.ElapsedSeconds();
        if (entering >= 0) ++stats_.candidate_hits;
      }
      if (entering < 0) {
        entering =
            FullPricingScan(bland, partial && !bland, &direction, &d_enter);
      }
      if (entering < 0) {
        if (!phase1) return Status::OK();  // optimal
        if (CurrentInfeasibility() <= kInfeasAccept) return Status::OK();
        return Status::Infeasible("phase-1 infeasibility " +
                                  std::to_string(CurrentInfeasibility()));
      }

      // Direction in basic space: w = B^-1 A_e.
      Timer phase_timer;
      for (int pos : w_nz_) w[pos] = 0.0;
      LoadColumn(entering, &w, &w_nz_);
      if (!factor_.Ftran(&w, &w_nz_)) ListAllRows(&w_nz_);
      stats_.ftran_seconds += phase_timer.ElapsedSeconds();

      if (partial && !bland) {
        // Anchor the incrementally maintained reduced cost before pivoting
        // on it: d_q = c_q - c_B' w, exact under the current basis. A
        // candidate whose drift flipped it ineligible is dropped and
        // pricing retried (the list eventually drains into a full scan).
        double d_exact = cost_[entering];
        for (int pos : w_nz_) {
          const double cb = cost_[basis_[pos]];
          if (cb != 0.0) d_exact -= cb * w[pos];
        }
        const bool still_eligible =
            direction > 0 ? d_exact > opt_.tolerance
                          : d_exact < -opt_.tolerance;
        if (!still_eligible) {
          DropCandidate(entering);
          continue;
        }
        d_enter = d_exact;
      }
      // Only passes that change the solution count: a warm start from the
      // optimal basis of an identical LP reports 0 iterations (the final
      // optimality-detecting pricing pass is free).
      ++total_iterations_;
      ++stats_.primal_pivots;
      if (bland) ++stats_.bland_pivots;

      phase_timer.Reset();
      // Ratio test: entering moves by t >= 0 in `direction`. In phase 1 an
      // out-of-bounds basic variable moving toward feasibility blocks at
      // its violated bound (so it re-enters the feasible box exactly
      // there); one moving away never blocks.
      double t_limit = upper_[entering] - lower_[entering];  // bound flip
      int leaving_pos = -1;
      bool leaving_to_upper = false;
      for (int pos : w_nz_) {
        const double delta = direction * w[pos];
        if (std::abs(delta) <= opt_.tolerance) continue;
        const int bj = basis_[pos];
        const double xb = basic_value_[pos];
        double t;
        bool to_upper;
        if (phase1 && xb < lower_[bj] - kFeasTolerance) {
          if (delta >= 0.0) continue;  // moving further below: no block
          t = (lower_[bj] - xb) / (-delta);
          to_upper = false;
        } else if (phase1 && xb > upper_[bj] + kFeasTolerance) {
          if (delta <= 0.0) continue;
          t = (xb - upper_[bj]) / delta;
          to_upper = true;
        } else if (delta > 0.0) {
          t = std::max(0.0, xb - lower_[bj]) / delta;
          to_upper = false;
        } else {
          if (!std::isfinite(upper_[bj])) continue;
          t = std::max(0.0, upper_[bj] - xb) / (-delta);
          to_upper = true;
        }
        if (t < t_limit) {
          t_limit = t;
          leaving_pos = pos;
          leaving_to_upper = to_upper;
        }
      }
      stats_.ratio_test_seconds += phase_timer.ElapsedSeconds();
      if (!std::isfinite(t_limit)) {
        if (phase1) {
          return Status::NumericalError("unbounded phase-1 ray");
        }
        return Status::Unbounded("LP is unbounded");
      }
      const double t = std::max(0.0, t_limit);

      if (t > 0.0) {
        for (int pos : w_nz_) basic_value_[pos] -= direction * t * w[pos];
        if (partial) tracked_obj += d_enter * direction * t;
      }
      if (leaving_pos < 0) {
        // Bound flip: entering jumps to its other bound.
        status_[entering] =
            direction > 0 ? VarStatus::kAtUpper : VarStatus::kAtLower;
        continue;
      }

      // Devex reference-row BTRAN must see the pre-update basis; phase 2
      // reuses the same rho for the incremental reduced-cost updates of
      // the list members. Under Bland the weights stay put and the full
      // scan just cleared the candidate list, so skip the rho Btran.
      if (!bland) {
        phase_timer.Reset();
        rho.assign(num_rows_, 0.0);
        rho[leaving_pos] = 1.0;
        nz_.assign(1, leaving_pos);
        factor_.Btran(&rho, nz_);
        stats_.btran_seconds += phase_timer.ElapsedSeconds();
      }

      // Pivot: entering becomes basic in leaving_pos.
      const int leaving = basis_[leaving_pos];
      const double alpha_rq = w[leaving_pos];
      status_[leaving] =
          leaving_to_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
      pos_of_basic_[leaving] = -1;
      basis_[leaving_pos] = entering;
      pos_of_basic_[entering] = leaving_pos;
      status_[entering] = VarStatus::kBasic;
      basic_value_[leaving_pos] =
          direction > 0 ? lower_[entering] + t : upper_[entering] - t;

      if (partial && !bland) {
        phase_timer.Reset();
        UpdateCandidatesAfterPivot(entering, leaving, d_enter, alpha_rq, rho);
        stats_.pricing_seconds += phase_timer.ElapsedSeconds();
      } else if (!bland) {
        phase_timer.Reset();
        UpdateDevexWeights(entering, leaving, alpha_rq, rho);
        stats_.pricing_seconds += phase_timer.ElapsedSeconds();
      }

      phase_timer.Reset();
      Status updated = factor_.Update(w, w_nz_, leaving_pos);
      stats_.factor_seconds += phase_timer.ElapsedSeconds();
      if (!updated.ok() || ShouldRefactor()) {
        Status refactored = Refactorize();
        if (!refactored.ok()) return refactored;
        // Re-anchor the incrementally tracked objective at the same
        // cadence the factorization is refreshed.
        if (partial) tracked_obj = CurrentObjective();
      }
    }
  }

  double CurrentInfeasibility() const {
    double infeas = 0.0;
    for (int pos = 0; pos < num_rows_; ++pos) {
      const int j = basis_[pos];
      const double v = basic_value_[pos];
      infeas += std::max(0.0, lower_[j] - v) + std::max(0.0, v - upper_[j]);
    }
    return infeas;
  }

  /// Devex update: gamma_j = max(gamma_j, (alpha_rj / alpha_rq)^2 gamma_q)
  /// over the pivot row alpha_r, with the leaving variable re-entering the
  /// nonbasic set at max(gamma_q / alpha_rq^2, 1).
  void UpdateDevexWeights(int entering, int leaving, double alpha_rq,
                          const std::vector<double>& rho) {
    const double gamma_q = devex_[entering];
    const double inv_rq2 = 1.0 / (alpha_rq * alpha_rq);
    for (int j = 0; j < num_cols_; ++j) {
      if (status_[j] == VarStatus::kBasic || j == leaving) continue;
      double alpha_rj = 0.0;
      for (const auto& [row, a] : cols_[j]) alpha_rj += rho[row] * a;
      if (alpha_rj == 0.0) continue;
      const double cand = alpha_rj * alpha_rj * inv_rq2 * gamma_q;
      if (cand > devex_[j]) devex_[j] = cand;
    }
    devex_[leaving] = std::max(gamma_q * inv_rq2, 1.0);
    // Restart the reference framework when weights blow up.
    if (devex_[leaving] > 1e10) devex_.assign(num_cols_, 1.0);
  }

  /// Partial-pricing post-pivot update, one pass over the list: each
  /// surviving member's reduced cost moves by -theta * alpha_rj (the
  /// incremental rule d' = d - theta alpha_r, theta = d_q / alpha_rq) and
  /// its Devex weight by the same reference-row formula as the full path —
  /// restricted to the list, which is the entire point. The leaving
  /// variable re-enters the nonbasic set with d = -theta and joins the
  /// list when that is an improving direction.
  void UpdateCandidatesAfterPivot(int entering, int leaving, double d_q,
                                  double alpha_rq,
                                  const std::vector<double>& rho) {
    const double theta = d_q / alpha_rq;
    const double gamma_q = devex_[entering];
    const double inv_rq2 = 1.0 / (alpha_rq * alpha_rq);
    size_t out = 0;
    for (const PricingCandidate& cand : cand_) {
      if (cand.col == entering || cand.col == leaving ||
          status_[cand.col] == VarStatus::kBasic) {
        continue;
      }
      double alpha_rj = 0.0;
      for (const auto& [row, a] : cols_[cand.col]) alpha_rj += rho[row] * a;
      PricingCandidate updated = cand;
      updated.d -= theta * alpha_rj;
      if (alpha_rj != 0.0) {
        const double score = alpha_rj * alpha_rj * inv_rq2 * gamma_q;
        if (score > devex_[cand.col]) devex_[cand.col] = score;
      }
      cand_[out++] = updated;
    }
    cand_.resize(out);
    const double d_leaving = -theta;
    const bool leaving_eligible =
        status_[leaving] == VarStatus::kAtLower
            ? d_leaving > opt_.tolerance
            : d_leaving < -opt_.tolerance;
    if (leaving_eligible &&
        static_cast<int>(cand_.size()) < 2 * cand_capacity_) {
      cand_.push_back({leaving, d_leaving});
    }
    devex_[leaving] = std::max(gamma_q * inv_rq2, 1.0);
    if (devex_[leaving] > 1e10) devex_.assign(num_cols_, 1.0);
  }

  // The loaded LP (Load, SetValues).
  bool loaded_ = false;
  int n_struct_ = 0;
  int num_rows_ = 0;
  int num_cols_ = 0;
  bool maximize_ = true;
  /// The constraint matrix A (logicals included) in one flat column-major
  /// array: column j's (row, coef) entries in ascending row order.
  ColumnMatrix cols_;
  std::vector<double> lower_, upper_, rhs_;
  std::vector<double> obj_;       ///< structural objective, model sense
  std::vector<double> row_sign_;  ///< -1 for a negated >= row, else 1
  /// Time of the latest Load(), charged to the next solve's setup.
  double load_seconds_ = 0.0;

  // The current solve (Run).
  SimplexOptions opt_;
  const LpBasis* warm_ = nullptr;
  std::vector<double> cost_;

  std::vector<VarStatus> status_;
  std::vector<int> basis_;          ///< position -> basic column
  std::vector<int> pos_of_basic_;   ///< column -> position (or -1)
  std::vector<double> basic_value_;  ///< position -> value of its basic var
  /// y = B^-T c_B of the latest full pricing scan of this solve: at its
  /// end, the one that proved optimality.
  std::vector<double> y_;
  /// Scratch of the whole-column passes, freed after each solve: the
  /// columns a pass lists (the warm start's basic columns, the nonzero
  /// ones) and structural values.
  std::vector<int> listed_;
  std::vector<double> values_;
  std::vector<double> devex_;        ///< Devex reference weights
  std::vector<double> d_;  ///< dual simplex: reduced costs (nonbasic read)
  std::vector<double> dual_gamma_;   ///< dual Devex row weights (per position)

  /// Partial-pricing candidate list (+ scores during a rebuild scan).
  std::vector<PricingCandidate> cand_;
  std::vector<double> cand_score_;
  int cand_capacity_ = 0;

  BasisFactorization factor_;
  /// The basis factor_ holds the LU of (valid while factored_): set by
  /// every successful factorization, cleared by Load().
  std::vector<int> factored_basis_;
  bool factored_ = false;
  /// Pattern of the vector handed to the latest Ftran/Btran, and of the
  /// entering column's Ftran image w (ascending), which the pivot's loops
  /// over w walk instead of every row.
  std::vector<int> nz_, w_nz_;
  bool warm_used_ = false;
  int total_iterations_ = 0;
  int phase1_iterations_ = 0;
  LpStats stats_;
};

namespace {

/// Bridges the solve's LpStats onto the active "lp.solve" trace span:
/// deterministic pivot counters plus one stat-bridged child per phase.
/// Always the same six children (zero-duration included) so the span
/// structure stays bit-stable across runs.
void AttachLpTrace(TraceScope* span, const LpSolution& sol) {
  if (!span->active()) return;
  span->Counter("pivots", sol.iterations);
  span->Counter("phase1_pivots", sol.phase1_iterations);
  span->Counter("warm_started", sol.warm_started ? 1 : 0);
  span->Counter("dual_simplex", sol.dual_simplex_used ? 1 : 0);
  span->Counter("eta_count", sol.stats.eta_count);
  span->Counter("refactorizations", sol.stats.refactorizations);
  span->Counter("reused_factorizations", sol.stats.reused_factorizations);
  span->BridgeChild("lp.setup", sol.stats.setup_seconds);
  span->BridgeChild("lp.pricing", sol.stats.pricing_seconds);
  span->BridgeChild("lp.ratio_test", sol.stats.ratio_test_seconds);
  span->BridgeChild("lp.ftran", sol.stats.ftran_seconds);
  span->BridgeChild("lp.btran", sol.stats.btran_seconds);
  span->BridgeChild("lp.factor", sol.stats.factor_seconds);
}

/// Runs one solve of `simplex` inside an "lp.solve" span.
Result<LpSolution> RunTraced(RevisedSimplex* simplex,
                             const SimplexOptions& options,
                             const LpBasis* warm_start, TraceScope* span) {
  Result<LpSolution> sol = simplex->Run(options, warm_start);
  if (sol.ok()) AttachLpTrace(span, *sol);
  return sol;
}

}  // namespace

Result<LpSolution> SolveLp(const LpModel& model, const SimplexOptions& options,
                           const LpBasis* warm_start) {
  TraceScope lp_span("lp.solve");
  RevisedSimplex simplex;
  SAVG_RETURN_NOT_OK(simplex.Load(model));
  return RunTraced(&simplex, options, warm_start, &lp_span);
}

SimplexEngine::SimplexEngine() : impl_(std::make_unique<RevisedSimplex>()) {}
SimplexEngine::~SimplexEngine() = default;

Status SimplexEngine::Load(const LpModel& model) { return impl_->Load(model); }

void SimplexEngine::SetValues(const std::vector<double>& objective,
                              const std::vector<double>& upper) {
  impl_->SetValues(objective, upper);
}

bool SimplexEngine::loaded() const { return impl_->loaded(); }

Result<LpSolution> SimplexEngine::Solve(const SimplexOptions& options,
                                        const LpBasis* warm_start) {
  TraceScope lp_span("lp.solve");
  return RunTraced(impl_.get(), options, warm_start, &lp_span);
}

}  // namespace savg
