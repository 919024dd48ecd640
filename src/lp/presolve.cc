#include "lp/presolve.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>

namespace savg {
namespace {

// Feasibility slack allowed when an empty row or crossing bounds decide
// infeasibility: presolve must not declare infeasible anything the simplex
// would accept at its own tolerance.
constexpr double kFeasSlack = 1e-7;

// Nearest power of two to |x| (1.0 for x == 0), used for bit-lossless
// equilibration: multiplying by a power of two only shifts the exponent.
double PowerOfTwoNear(double x) {
  const double a = std::fabs(x);
  if (a <= 0.0 || !std::isfinite(a)) return 1.0;
  return std::exp2(std::round(std::log2(a)));
}

}  // namespace

Result<PresolvedLp> PresolveLp(const LpModel& model,
                               const PresolveOptions& options) {
  const int n = model.num_vars();
  const int m = model.num_rows();
  const double tol = options.tolerance;
  const double sense = model.maximize() ? 1.0 : -1.0;

  PresolvedLp pre;
  pre.original_ = &model;
  pre.tol_ = tol;
  pre.stats_ = PresolveStats{};

  // ---- working copies --------------------------------------------------
  std::vector<double> lower(n), upper(n), cmax(n);
  for (int j = 0; j < n; ++j) {
    lower[j] = model.lower(j);
    upper[j] = model.upper(j);
    // Objective in "maximize" orientation so domination tests read one way.
    cmax[j] = sense * model.objective(j);
  }

  // Canonical rows: duplicate terms summed, exact-zero coefficients
  // dropped (the simplex does the same summation internally).
  struct WorkRow {
    RowType type;
    double rhs;
    std::vector<LpTerm> terms;
    int live = 0;       // terms whose variable is still present
    bool removed = false;
  };
  std::vector<WorkRow> rows(m);
  std::vector<double> acc(n, 0.0);
  std::vector<int> touched;
  for (int i = 0; i < m; ++i) {
    const LpRow& r = model.row(i);
    rows[i].type = r.type;
    rows[i].rhs = r.rhs;
    touched.clear();
    for (const LpTerm& t : r.terms) {
      if (acc[t.var] == 0.0) touched.push_back(t.var);
      acc[t.var] += t.coef;
    }
    for (int v : touched) {
      if (acc[v] != 0.0) rows[i].terms.push_back({v, acc[v]});
      acc[v] = 0.0;
    }
    rows[i].live = static_cast<int>(rows[i].terms.size());
  }

  // Column occurrence lists over the canonical rows.
  std::vector<std::vector<std::pair<int, double>>> col_rows(n);
  for (int i = 0; i < m; ++i)
    for (const LpTerm& t : rows[i].terms) col_rows[t.var].push_back({i, t.coef});

  std::vector<uint8_t> col_removed(n, 0);
  pre.fixed_value_.assign(n, 0.0);
  pre.fixed_at_upper_.assign(n, 0);

  // Fixes column j at `value`, substituting it out of every live row.
  auto FixColumn = [&](int j, double value, bool at_upper) {
    col_removed[j] = 1;
    pre.fixed_value_[j] = value;
    pre.fixed_at_upper_[j] = at_upper ? 1 : 0;
    for (const auto& [i, a] : col_rows[j]) {
      if (rows[i].removed) continue;
      rows[i].rhs -= a * value;
      --rows[i].live;
    }
  };

  auto RecordSingletonVar = [&](int j) {
    if (!pre.singleton_var_cols_.count(j))
      pre.singleton_var_cols_[j] = col_rows[j];
  };

  bool infeasible = false;
  bool changed = true;
  for (int pass = 0; pass < options.max_passes && changed && !infeasible;
       ++pass) {
    changed = false;

    // --- fixed columns --------------------------------------------------
    if (options.remove_fixed_columns) {
      for (int j = 0; j < n && !infeasible; ++j) {
        if (col_removed[j]) continue;
        if (upper[j] < lower[j] - kFeasSlack) {
          infeasible = true;
          break;
        }
        if (std::isfinite(lower[j]) && upper[j] - lower[j] <= tol) {
          FixColumn(j, lower[j], /*at_upper=*/false);
          ++pre.stats_.fixed_cols;
          changed = true;
        }
      }
    }

    // --- empty + singleton rows ----------------------------------------
    if (options.remove_rows && !infeasible) {
      for (int i = 0; i < m && !infeasible; ++i) {
        WorkRow& r = rows[i];
        if (r.removed) continue;
        if (r.live == 0) {
          const bool ok = (r.type == RowType::kLessEqual &&
                           r.rhs >= -kFeasSlack) ||
                          (r.type == RowType::kGreaterEqual &&
                           r.rhs <= kFeasSlack) ||
                          (r.type == RowType::kEqual &&
                           std::fabs(r.rhs) <= kFeasSlack);
          if (!ok) {
            infeasible = true;
            break;
          }
          r.removed = true;
          pre.removed_rows_.push_back({i, -1, 0.0, 0.0, false});
          ++pre.stats_.empty_rows;
          changed = true;
          continue;
        }
        if (r.live != 1) continue;
        // Locate the single live term.
        int j = -1;
        double a = 0.0;
        for (const LpTerm& t : r.terms) {
          if (!col_removed[t.var]) {
            j = t.var;
            a = t.coef;
            break;
          }
        }
        if (j < 0 || std::fabs(a) < 1e-12) continue;  // numerically empty
        const double b = r.rhs / a;
        // The row constrains a*x {<=,=,>=} rhs -> a bound on x.
        const bool upper_side =
            (r.type == RowType::kLessEqual) == (a > 0.0);
        r.removed = true;
        ++pre.stats_.singleton_rows;
        changed = true;
        RecordSingletonVar(j);
        if (r.type == RowType::kEqual || upper_side) {
          pre.removed_rows_.push_back({i, j, a, b, /*bound_is_upper=*/true});
          upper[j] = std::min(upper[j], b);
        }
        if (r.type == RowType::kEqual || !upper_side) {
          // For equality rows one RemovedRow record is enough: postsolve
          // keys on the value, not the side.
          if (r.type != RowType::kEqual)
            pre.removed_rows_.push_back({i, j, a, b, false});
          lower[j] = std::max(lower[j], b);
        }
        if (upper[j] < lower[j] - kFeasSlack) infeasible = true;
      }
    }

    // --- sign-dominated columns ----------------------------------------
    if (options.remove_dominated_columns && !infeasible) {
      for (int j = 0; j < n; ++j) {
        if (col_removed[j]) continue;
        bool down_ok = std::isfinite(lower[j]);
        bool up_ok = std::isfinite(upper[j]);
        if (!down_ok && !up_ok) continue;
        for (const auto& [i, a] : col_rows[j]) {
          if (rows[i].removed) continue;
          if (rows[i].type == RowType::kEqual) {
            down_ok = up_ok = false;
            break;
          }
          const bool relaxes_down = (rows[i].type == RowType::kLessEqual)
                                        ? (a >= 0.0)
                                        : (a <= 0.0);
          if (relaxes_down)
            up_ok = up_ok && (a == 0.0);
          else
            down_ok = false;
          if (!down_ok && !up_ok) break;
        }
        if (down_ok && cmax[j] <= tol) {
          FixColumn(j, lower[j], /*at_upper=*/false);
          ++pre.stats_.dominated_cols;
          changed = true;
        } else if (up_ok && cmax[j] >= -tol) {
          FixColumn(j, upper[j], /*at_upper=*/true);
          ++pre.stats_.dominated_cols;
          changed = true;
        }
      }
    }

    // --- parallel (twin) columns ----------------------------------------
    if (options.remove_parallel_columns && !infeasible) {
      // Rows eligible to cap the total mass of a twin group: every OTHER
      // live term must provably contribute >= 0 (coef >= 0, var lower
      // >= 0), the row type must bound from above (<= or =).
      std::vector<uint8_t> row_caps(m, 0);
      for (int i = 0; i < m; ++i) {
        const WorkRow& r = rows[i];
        if (r.removed || r.type == RowType::kGreaterEqual) continue;
        bool ok = true;
        for (const LpTerm& t : r.terms) {
          if (col_removed[t.var]) continue;
          if (t.coef < 0.0 || lower[t.var] < 0.0) {
            ok = false;
            break;
          }
        }
        row_caps[i] = ok ? 1 : 0;
      }
      // Group columns by their live constraint column. Only columns with
      // lower == 0 and a finite upper participate (the shift argument
      // moves their whole mass into better twins).
      std::map<std::vector<std::pair<int, double>>, std::vector<int>> groups;
      std::vector<std::pair<int, double>> sig;
      for (int j = 0; j < n; ++j) {
        if (col_removed[j]) continue;
        if (std::fabs(lower[j]) > tol || !std::isfinite(upper[j]) ||
            upper[j] < 0.0)
          continue;
        sig.clear();
        for (const auto& [i, a] : col_rows[j])
          if (!rows[i].removed) sig.push_back({i, a});
        std::sort(sig.begin(), sig.end());
        if (sig.empty()) continue;  // empty column: dominated pass handles it
        groups[sig].push_back(j);
      }
      for (auto& [signature, cols] : groups) {
        if (cols.size() < 2) continue;
        // Tightest capacity the signature rows put on the group's total.
        double cap = kLpInfinity;
        for (const auto& [i, a] : signature)
          if (row_caps[i] && a > 0.0)
            cap = std::min(cap, std::max(0.0, rows[i].rhs / a));
        if (!std::isfinite(cap)) continue;
        // Strictly better twins must cover the whole cap before a column
        // can be fixed at 0: any feasible mass on it can then be shifted
        // onto twins with strictly larger objective, so EVERY optimum has
        // it at 0.
        std::sort(cols.begin(), cols.end(), [&](int a, int b) {
          return cmax[a] != cmax[b] ? cmax[a] > cmax[b] : a < b;
        });
        double better_capacity = 0.0;  // sum of uppers of strictly better
        size_t tie_start = 0;
        double tie_capacity = 0.0;  // uppers of the current cmax tie group
        for (size_t p = 0; p < cols.size(); ++p) {
          const int j = cols[p];
          if (p > 0 && cmax[cols[tie_start]] - cmax[j] > tol) {
            better_capacity += tie_capacity;
            tie_capacity = 0.0;
            tie_start = p;
          }
          if (better_capacity >= cap - tol) {
            FixColumn(j, 0.0, /*at_upper=*/false);
            ++pre.stats_.parallel_cols;
            changed = true;
          } else {
            tie_capacity += upper[j];
          }
        }
      }
    }
  }

  if (infeasible) {
    return Status(StatusCode::kInfeasible,
                  "presolve: model proven infeasible");
  }

  // ---- assemble the reduced model -------------------------------------
  pre.col_map_.assign(n, -1);
  pre.row_map_.assign(m, -1);
  int rn = 0, rm = 0;
  for (int j = 0; j < n; ++j)
    if (!col_removed[j]) pre.col_map_[j] = rn++;
  for (int i = 0; i < m; ++i)
    if (!rows[i].removed) pre.row_map_[i] = rm++;

  // Reduced rows in reduced column indices (unscaled).
  std::vector<WorkRow*> kept_rows;
  kept_rows.reserve(rm);
  for (int i = 0; i < m; ++i)
    if (!rows[i].removed) kept_rows.push_back(&rows[i]);

  // Power-of-two equilibration on the reduced matrix: first rows to unit
  // max-norm, then columns. Powers of two keep every product exact.
  pre.row_scale_.assign(rm, 1.0);
  pre.col_scale_.assign(rn, 1.0);
  if (options.scale) {
    for (int ri = 0; ri < rm; ++ri) {
      double mx = 0.0;
      for (const LpTerm& t : kept_rows[ri]->terms)
        if (!col_removed[t.var]) mx = std::max(mx, std::fabs(t.coef));
      pre.row_scale_[ri] = 1.0 / PowerOfTwoNear(mx);
    }
    std::vector<double> colmax(rn, 0.0);
    for (int ri = 0; ri < rm; ++ri)
      for (const LpTerm& t : kept_rows[ri]->terms)
        if (!col_removed[t.var])
          colmax[pre.col_map_[t.var]] =
              std::max(colmax[pre.col_map_[t.var]],
                       std::fabs(t.coef) * pre.row_scale_[ri]);
    for (int rj = 0; rj < rn; ++rj)
      pre.col_scale_[rj] = 1.0 / PowerOfTwoNear(colmax[rj]);
    for (int ri = 0; ri < rm; ++ri)
      if (pre.row_scale_[ri] != 1.0) pre.stats_.scaled = true;
    for (int rj = 0; rj < rn; ++rj)
      if (pre.col_scale_[rj] != 1.0) pre.stats_.scaled = true;
  }

  pre.reduced_.SetMaximize(model.maximize());
  for (int j = 0; j < n; ++j) {
    if (col_removed[j]) continue;
    const double s = pre.col_scale_[pre.col_map_[j]];
    // x~ = x / s, so bounds divide by s and the objective multiplies.
    pre.reduced_.AddVariable(lower[j] / s, upper[j] / s,
                             model.objective(j) * s);
  }
  for (int ri = 0; ri < rm; ++ri) {
    const WorkRow* r = kept_rows[ri];
    const double rs = pre.row_scale_[ri];
    std::vector<LpTerm> terms;
    terms.reserve(r->live);
    for (const LpTerm& t : r->terms) {
      if (col_removed[t.var]) continue;
      const int rj = pre.col_map_[t.var];
      terms.push_back({rj, t.coef * rs * pre.col_scale_[rj]});
    }
    pre.reduced_.AddRow(r->type, r->rhs * rs, std::move(terms));
  }

  return pre;
}

LpBasis PresolvedLp::MapBasis(const LpBasis& original) const {
  LpBasis mapped;
  if (!original.Compatible(original_->num_vars(), original_->num_rows()))
    return mapped;
  mapped.structural.reserve(reduced_.num_vars());
  mapped.logical.reserve(reduced_.num_rows());
  for (int j = 0; j < original_->num_vars(); ++j)
    if (col_map_[j] >= 0) mapped.structural.push_back(original.structural[j]);
  for (int i = 0; i < original_->num_rows(); ++i)
    if (row_map_[i] >= 0) mapped.logical.push_back(original.logical[i]);
  return mapped;
}

LpSolution PresolvedLp::Postsolve(const LpSolution& reduced_sol) const {
  const LpModel& model = *original_;
  const int n = model.num_vars();
  const int m = model.num_rows();

  LpSolution out = reduced_sol;  // carries stats, iteration counters, flags

  // --- primal point ----------------------------------------------------
  out.x.assign(n, 0.0);
  for (int j = 0; j < n; ++j) {
    const int rj = col_map_[j];
    out.x[j] = rj >= 0 ? col_scale_[rj] * reduced_sol.x[rj]
                       : fixed_value_[j];
  }

  // --- duals of kept rows ----------------------------------------------
  // Scaled row i~ = r_i * row_i, so y_i = r_i * y~_i recovers the
  // original-row multiplier. Removed rows start at 0 (slack basic).
  out.dual_values.assign(m, 0.0);
  const bool have_duals =
      static_cast<int>(reduced_sol.dual_values.size()) == reduced_.num_rows();
  if (have_duals) {
    for (int i = 0; i < m; ++i)
      if (row_map_[i] >= 0)
        out.dual_values[i] =
            row_scale_[row_map_[i]] * reduced_sol.dual_values[row_map_[i]];
  }

  // --- basis ------------------------------------------------------------
  const bool have_basis =
      reduced_sol.basis.Compatible(reduced_.num_vars(), reduced_.num_rows());
  out.basis = LpBasis{};
  if (have_basis) {
    out.basis.structural.assign(n, VarBasisStatus::kNonbasicLower);
    out.basis.logical.assign(m, VarBasisStatus::kBasic);
    for (int j = 0; j < n; ++j) {
      if (col_map_[j] >= 0)
        out.basis.structural[j] = reduced_sol.basis.structural[col_map_[j]];
      else
        out.basis.structural[j] = fixed_at_upper_[j]
                                      ? VarBasisStatus::kNonbasicUpper
                                      : VarBasisStatus::kNonbasicLower;
    }
    for (int i = 0; i < m; ++i)
      if (row_map_[i] >= 0)
        out.basis.logical[i] = reduced_sol.basis.logical[row_map_[i]];
  }

  // --- removed singleton rows: re-activate the binding ones -------------
  // A variable sitting (nonbasic) at a presolve-tightened bound is not at
  // any bound of the original model, so the basis needs the row that
  // implied the bound: the variable turns basic, the row's slack leaves,
  // and the row's dual is what prices the variable's reduced cost to 0:
  //   y_R = (c_j - sum_{i != R} y_i a_ij) / a_Rj.
  for (const RemovedRow& rr : removed_rows_) {
    if (rr.var < 0 || !have_basis) continue;
    const int j = rr.var;
    if (out.basis.structural[j] == VarBasisStatus::kBasic) continue;
    if (out.basis.logical[rr.row] != VarBasisStatus::kBasic) continue;
    const double v = out.x[j];
    const double scale = std::max(1.0, std::fabs(v));
    // Already at a genuine bound of the original model? Then the removed
    // row is slack (or degenerately tight) and keeps dual 0.
    const double natural = out.basis.structural[j] ==
                                   VarBasisStatus::kNonbasicUpper
                               ? model.upper(j)
                               : model.lower(j);
    if (std::isfinite(natural) && std::fabs(v - natural) <= tol_ * scale)
      continue;
    // This removed row must be the active one for the variable's value.
    if (std::fabs(v - rr.bound) > 1e-6 * scale) continue;
    out.basis.structural[j] = VarBasisStatus::kBasic;
    out.basis.logical[rr.row] = VarBasisStatus::kNonbasicLower;
    if (have_duals) {
      double d = model.objective(j);
      auto it = singleton_var_cols_.find(j);
      if (it != singleton_var_cols_.end()) {
        for (const auto& [i, a] : it->second)
          if (i != rr.row) d -= out.dual_values[i] * a;
      }
      out.dual_values[rr.row] = d / rr.coef;
    }
  }

  out.objective = model.ObjectiveValue(out.x);
  return out;
}

}  // namespace savg
