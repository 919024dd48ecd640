#include "lp/basis_lu.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <utility>

#include "lp/dense_matrix.h"
#include "util/logging.h"

namespace savg {

namespace {

constexpr double kPivotTolerance = 1e-11;
constexpr double kUpdatePivotTolerance = 1e-9;
/// Threshold partial pivoting: accept a sparser pivot row whose magnitude
/// is within this factor of the column maximum.
constexpr double kThresholdPivoting = 0.1;

// ---------------------------------------------------------------------------
// Sparse LU backend.
// ---------------------------------------------------------------------------

/// Left-looking LU of the basis matrix with threshold partial pivoting and
/// a static ascending-nonzero column order. Each column folds in only the
/// earlier pivots it reaches (Gilbert & Peierls's reach), taken from a
/// min-heap in ascending pivot order rather than a DFS topological order,
/// so the subtractions run in the natural k order. Factorization work is
/// the arithmetic itself plus O(n) setup, up to the heap's log factor;
/// no column probes the pivots it does not reach.
/// L is kept as an ordered elimination eta file, U column-wise in pivot
/// coordinates. Everything — L, U and the product-form eta file — lives in
/// flat (index, value) arrays with ascending indices per segment, so the
/// solve kernels stream contiguous memory instead of chasing a
/// vector-of-vectors. Ftran/Btran still make O(n) passes over every pivot
/// and position on top of their O(nnz(L) + nnz(U) + nnz(etas)) arithmetic,
/// and Update() scans all n entries of w, so a hypersparse solve is O(n),
/// not O(its nonzeros).
///
/// The Ftran-side kernels come in two flavors chosen by the input vector's
/// nonzero density (LuKernelOptions::dense_switch_density): the sparse
/// flavor skips whole segments whose multiplier is zero (hypersparse
/// entering columns touch a handful of segments), the dense flavor drops
/// the per-segment zero test and runs branch-lean straight-line loops.
/// Both flavors execute identical arithmetic on every nonzero, so their
/// results are exactly equal (a zero multiplier only ever adds ±0.0).
class LuBasisFactorization : public BasisFactorization {
 public:
  explicit LuBasisFactorization(const LuKernelOptions& kernel)
      : kernel_(kernel) {}

  Status Factorize(const ColumnMatrix& columns,
                   const std::vector<int>& basis) override {
    const int n = static_cast<int>(basis.size());
    n_ = n;
    ++factorizations_;
    ClearEtas();
    eta_ops_since_factor_ = 0;
    int64_t ops = 0;
    int64_t pivot_visits = 0;
    pos_of_k_.assign(n, -1);
    pivot_row_of_k_.assign(n, -1);
    k_of_row_.assign(n, -1);
    l_off_.assign(1, 0);
    l_rows_.clear();
    l_vals_.clear();
    u_off_.assign(1, 0);
    u_ks_.clear();
    u_vals_.clear();
    diag_.assign(n, 0.0);
    work_.assign(n, 0.0);
    queued_.assign(n, 0);
    reached_.clear();

    // Static fill-reducing order: sparsest basis columns pivot first.
    std::vector<int> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return columns[basis[a]].size() < columns[basis[b]].size();
    });

    std::vector<int> touched;
    touched.reserve(n);
    std::vector<std::pair<int, double>> lterms, uterms;
    for (int k = 0; k < n; ++k) {
      const int pos = order[k];
      touched.clear();
      for (const auto& [row, value] : columns[basis[pos]]) {
        if (work_[row] == 0.0 && value != 0.0) touched.push_back(row);
        work_[row] += value;
      }
      ops += columns[basis[pos]].size();
      // Left-looking pass: fold in the eliminations of the earlier pivots
      // this column reaches, in ascending k, so the subtractions happen in
      // exactly the order a scan over every k2 < k would perform them. A
      // pivot is reached when its row is nonzero in the column or written
      // by an earlier elimination. L segment k2 only writes rows that
      // pivot after k2, so the min-heap never receives a k2 below the one
      // just popped.
      for (const ColumnEntry& entry : columns[basis[pos]]) Reach(entry.row);
      while (!reached_.empty()) {
        std::pop_heap(reached_.begin(), reached_.end(), std::greater<int>());
        const int k2 = reached_.back();
        reached_.pop_back();
        queued_[k2] = 0;
        ++pivot_visits;
        const double xk = work_[pivot_row_of_k_[k2]];
        if (xk == 0.0) continue;
        for (int64_t i = l_off_[k2]; i < l_off_[k2 + 1]; ++i) {
          const int row = l_rows_[i];
          if (work_[row] == 0.0) touched.push_back(row);
          work_[row] -= l_vals_[i] * xk;
          Reach(row);
        }
        ops += l_off_[k2 + 1] - l_off_[k2];
      }
      // Pivot choice: the unpivoted row of largest magnitude, except that
      // a smaller-index row within the pivoting threshold of the max wins
      // (deterministic, and biases toward the natural row order that the
      // mostly-triangular simplex bases preserve).
      double pivot_abs_max = 0.0;
      for (int row : touched) {
        if (k_of_row_[row] >= 0) continue;
        pivot_abs_max = std::max(pivot_abs_max, std::abs(work_[row]));
      }
      if (pivot_abs_max < kPivotTolerance) {
        for (int row : touched) work_[row] = 0.0;
        return Status::NumericalError("singular basis in LU factorization");
      }
      int pivot_row = -1;
      for (int row : touched) {
        if (k_of_row_[row] >= 0) continue;
        if (std::abs(work_[row]) < kThresholdPivoting * pivot_abs_max) {
          continue;
        }
        if (pivot_row < 0 || row < pivot_row) pivot_row = row;
      }
      const double pivot = work_[pivot_row];
      diag_[k] = pivot;
      pivot_row_of_k_[k] = pivot_row;
      k_of_row_[pivot_row] = k;
      pos_of_k_[k] = pos;
      lterms.clear();
      uterms.clear();
      for (int row : touched) {
        const double value = work_[row];
        work_[row] = 0.0;
        if (value == 0.0 || row == pivot_row) continue;
        const int krow = k_of_row_[row];
        if (krow >= 0 && krow < k) {
          uterms.emplace_back(krow, value);
        } else if (krow < 0) {
          lterms.emplace_back(row, value / pivot);
        }
      }
      ops += static_cast<int64_t>(touched.size());
      // Sorted segments: the solve kernels then walk strictly ascending
      // indices, which is what makes the flat streams cache-friendly.
      std::sort(lterms.begin(), lterms.end());
      std::sort(uterms.begin(), uterms.end());
      for (const auto& [row, mult] : lterms) {
        l_rows_.push_back(row);
        l_vals_.push_back(mult);
      }
      for (const auto& [krow, value] : uterms) {
        u_ks_.push_back(krow);
        u_vals_.push_back(value);
      }
      l_off_.push_back(static_cast<int64_t>(l_rows_.size()));
      u_off_.push_back(static_cast<int64_t>(u_ks_.size()));
    }
    factor_ops_ = ops;
    factor_pivot_visits_ = pivot_visits;
    return Status::OK();
  }

  void Ftran(std::vector<double>* v) const override {
    eta_ops_since_factor_ += static_cast<int64_t>(eta_rows_.size());
    const bool dense = Density(*v) > kernel_.dense_switch_density;
    double* x = v->data();
    // L pass in elimination order (original row space).
    if (dense) {
      for (int k = 0; k < n_; ++k) {
        const double xk = x[pivot_row_of_k_[k]];
        for (int64_t i = l_off_[k]; i < l_off_[k + 1]; ++i) {
          x[l_rows_[i]] -= l_vals_[i] * xk;
        }
      }
    } else {
      for (int k = 0; k < n_; ++k) {
        const double xk = x[pivot_row_of_k_[k]];
        if (xk == 0.0) continue;
        for (int64_t i = l_off_[k]; i < l_off_[k + 1]; ++i) {
          x[l_rows_[i]] -= l_vals_[i] * xk;
        }
      }
    }
    // Gather into pivot coordinates, backward-solve U, scatter to
    // basis-position space.
    std::vector<double>& z = scratch_;
    z.assign(n_, 0.0);
    for (int k = 0; k < n_; ++k) z[k] = x[pivot_row_of_k_[k]];
    if (dense) {
      for (int k = n_ - 1; k >= 0; --k) {
        const double t = z[k] / diag_[k];
        z[k] = t;
        for (int64_t i = u_off_[k]; i < u_off_[k + 1]; ++i) {
          z[u_ks_[i]] -= u_vals_[i] * t;
        }
      }
    } else {
      for (int k = n_ - 1; k >= 0; --k) {
        if (z[k] == 0.0) continue;
        const double t = z[k] / diag_[k];
        z[k] = t;
        for (int64_t i = u_off_[k]; i < u_off_[k + 1]; ++i) {
          z[u_ks_[i]] -= u_vals_[i] * t;
        }
      }
    }
    std::fill(v->begin(), v->end(), 0.0);
    for (int k = 0; k < n_; ++k) x[pos_of_k_[k]] = z[k];
    // Product-form eta file, forward order.
    const int num_etas = static_cast<int>(eta_pos_.size());
    if (dense) {
      for (int e = 0; e < num_etas; ++e) {
        const double t = x[eta_pos_[e]] / eta_pivot_[e];
        x[eta_pos_[e]] = t;
        for (int64_t i = eta_off_[e]; i < eta_off_[e + 1]; ++i) {
          x[eta_rows_[i]] -= eta_vals_[i] * t;
        }
      }
    } else {
      for (int e = 0; e < num_etas; ++e) {
        double& vp = x[eta_pos_[e]];
        if (vp == 0.0) continue;
        const double t = vp / eta_pivot_[e];
        vp = t;
        for (int64_t i = eta_off_[e]; i < eta_off_[e + 1]; ++i) {
          x[eta_rows_[i]] -= eta_vals_[i] * t;
        }
      }
    }
  }

  void Btran(std::vector<double>* v) const override {
    eta_ops_since_factor_ += static_cast<int64_t>(eta_rows_.size());
    double* x = v->data();
    // Eta file, reverse order. Accumulation (gather) form: each segment
    // reduces into one entry, so the loop body is branch-free — the dense
    // flavor IS the only flavor on the Btran side.
    for (int e = static_cast<int>(eta_pos_.size()) - 1; e >= 0; --e) {
      double acc = x[eta_pos_[e]];
      for (int64_t i = eta_off_[e]; i < eta_off_[e + 1]; ++i) {
        acc -= eta_vals_[i] * x[eta_rows_[i]];
      }
      x[eta_pos_[e]] = acc / eta_pivot_[e];
    }
    // Gather into pivot coordinates, forward-solve U', scatter through L'.
    std::vector<double>& z = scratch_;
    z.assign(n_, 0.0);
    for (int k = 0; k < n_; ++k) z[k] = x[pos_of_k_[k]];
    for (int k = 0; k < n_; ++k) {
      double acc = z[k];
      for (int64_t i = u_off_[k]; i < u_off_[k + 1]; ++i) {
        acc -= u_vals_[i] * z[u_ks_[i]];
      }
      z[k] = acc / diag_[k];
    }
    std::fill(v->begin(), v->end(), 0.0);
    for (int k = 0; k < n_; ++k) x[pivot_row_of_k_[k]] = z[k];
    for (int k = n_ - 1; k >= 0; --k) {
      double acc = x[pivot_row_of_k_[k]];
      for (int64_t i = l_off_[k]; i < l_off_[k + 1]; ++i) {
        acc -= l_vals_[i] * x[l_rows_[i]];
      }
      x[pivot_row_of_k_[k]] = acc;
    }
  }

  Status Update(const std::vector<double>& w, int leaving_pos) override {
    const double pivot = w[leaving_pos];
    if (std::abs(pivot) < kUpdatePivotTolerance) {
      return Status::NumericalError("tiny pivot in product-form update");
    }
    eta_pos_.push_back(leaving_pos);
    eta_pivot_.push_back(pivot);
    // The scan is index-ascending, so the segment lands pre-sorted.
    for (int i = 0; i < n_; ++i) {
      if (i == leaving_pos || w[i] == 0.0) continue;
      eta_rows_.push_back(i);
      eta_vals_.push_back(w[i]);
    }
    eta_off_.push_back(static_cast<int64_t>(eta_rows_.size()));
    return Status::OK();
  }

  int eta_count() const override { return static_cast<int>(eta_pos_.size()); }
  int factorizations() const override { return factorizations_; }
  int64_t eta_nonzeros() const override {
    return static_cast<int64_t>(eta_rows_.size()) +
           static_cast<int64_t>(eta_pos_.size());
  }
  int64_t factor_nonzeros() const override {
    return static_cast<int64_t>(l_rows_.size()) +
           static_cast<int64_t>(u_ks_.size()) + n_;
  }
  int64_t factor_ops() const override { return factor_ops_; }
  int64_t factor_pivot_visits() const override { return factor_pivot_visits_; }
  int64_t eta_ops_since_factor() const override {
    return eta_ops_since_factor_;
  }

 private:
  /// Queues the pivot of `row` for the left-looking pass, once.
  void Reach(int row) {
    const int k = k_of_row_[row];
    if (k < 0 || queued_[k]) return;
    queued_[k] = 1;
    reached_.push_back(k);
    std::push_heap(reached_.begin(), reached_.end(), std::greater<int>());
  }

  void ClearEtas() {
    eta_pos_.clear();
    eta_pivot_.clear();
    eta_off_.assign(1, 0);
    eta_rows_.clear();
    eta_vals_.clear();
  }

  double Density(const std::vector<double>& v) const {
    if (n_ == 0) return 0.0;
    int nnz = 0;
    for (double x : v) nnz += x != 0.0;
    return static_cast<double>(nnz) / static_cast<double>(n_);
  }

  const LuKernelOptions kernel_;
  int n_ = 0;
  std::vector<int> pos_of_k_;
  std::vector<int> pivot_row_of_k_, k_of_row_;
  /// L as elimination etas, flat: segment k is l_off_[k]..l_off_[k+1]
  /// of (l_rows_, l_vals_), row-sorted.
  std::vector<int64_t> l_off_;
  std::vector<int> l_rows_;
  std::vector<double> l_vals_;
  /// U column k in pivot coordinates, flat like L; diagonal separate.
  std::vector<int64_t> u_off_;
  std::vector<int> u_ks_;
  std::vector<double> u_vals_;
  std::vector<double> diag_;
  /// Product-form eta file, flat: eta e pivots at eta_pos_[e] with value
  /// eta_pivot_[e]; its off-pivot terms are segment eta_off_[e]..
  /// eta_off_[e+1] of (eta_rows_, eta_vals_), row-sorted.
  std::vector<int> eta_pos_;
  std::vector<double> eta_pivot_;
  std::vector<int64_t> eta_off_;
  std::vector<int> eta_rows_;
  std::vector<double> eta_vals_;
  std::vector<double> work_;
  /// Left-looking pass state: min-heap of the reached pivots k, and a
  /// per-pivot flag so each is queued at most once per column.
  std::vector<int> reached_;
  std::vector<char> queued_;
  mutable std::vector<double> scratch_;
  int factorizations_ = 0;
  int64_t factor_ops_ = 0;
  int64_t factor_pivot_visits_ = 0;
  mutable int64_t eta_ops_since_factor_ = 0;
};

// ---------------------------------------------------------------------------
// Dense backend (legacy explicit inverse).
// ---------------------------------------------------------------------------

class DenseBasisFactorization : public BasisFactorization {
 public:
  Status Factorize(const ColumnMatrix& columns,
                   const std::vector<int>& basis) override {
    const int n = static_cast<int>(basis.size());
    n_ = n;
    ++factorizations_;
    eta_count_ = 0;
    eta_ops_since_factor_ = 0;
    DenseMatrix b(n, n);
    for (int pos = 0; pos < n; ++pos) {
      for (const auto& [row, value] : columns[basis[pos]]) {
        b.At(row, pos) += value;
      }
    }
    auto inverse = b.Inverse();
    if (!inverse.ok()) return inverse.status();
    binv_ = std::move(inverse).value();
    return Status::OK();
  }

  void Ftran(std::vector<double>* v) const override {
    // binv_ rows are basis positions, columns original rows.
    std::vector<double>& out = scratch_;
    out.assign(n_, 0.0);
    for (int r = 0; r < n_; ++r) {
      const double x = (*v)[r];
      if (x == 0.0) continue;
      for (int pos = 0; pos < n_; ++pos) out[pos] += binv_.At(pos, r) * x;
    }
    *v = out;
  }

  void Btran(std::vector<double>* v) const override {
    std::vector<double>& out = scratch_;
    out.assign(n_, 0.0);
    for (int pos = 0; pos < n_; ++pos) {
      const double c = (*v)[pos];
      if (c == 0.0) continue;
      const double* row = binv_.RowPtr(pos);
      for (int r = 0; r < n_; ++r) out[r] += row[r] * c;
    }
    *v = out;
  }

  Status Update(const std::vector<double>& w, int leaving_pos) override {
    const double pivot = w[leaving_pos];
    if (std::abs(pivot) < kUpdatePivotTolerance) {
      return Status::NumericalError("tiny pivot in dense basis update");
    }
    double* prow = binv_.RowPtr(leaving_pos);
    const double pinv = 1.0 / pivot;
    for (int c = 0; c < n_; ++c) prow[c] *= pinv;
    for (int i = 0; i < n_; ++i) {
      if (i == leaving_pos || w[i] == 0.0) continue;
      double* irow = binv_.RowPtr(i);
      const double f = w[i];
      for (int c = 0; c < n_; ++c) irow[c] -= f * prow[c];
    }
    ++eta_count_;
    return Status::OK();
  }

  int eta_count() const override { return eta_count_; }
  int factorizations() const override { return factorizations_; }
  // The dense backend folds updates into the explicit inverse, so the
  // "eta file" it reports is the equivalent dense work: n^2 per update
  // already paid at Update() time, nothing extra per solve. Returning the
  // folded size keeps the adaptive-policy counters meaningful (the
  // density trigger then mirrors the fixed interval).
  int64_t eta_nonzeros() const override {
    return static_cast<int64_t>(eta_count_) * n_;
  }
  int64_t factor_nonzeros() const override {
    return static_cast<int64_t>(n_) * n_;
  }
  int64_t factor_ops() const override {
    return static_cast<int64_t>(n_) * n_ * n_;
  }
  // Gauss-Jordan has no left-looking pass.
  int64_t factor_pivot_visits() const override { return 0; }
  int64_t eta_ops_since_factor() const override {
    return eta_ops_since_factor_;
  }

 private:
  int n_ = 0;
  DenseMatrix binv_;
  mutable std::vector<double> scratch_;
  int eta_count_ = 0;
  int factorizations_ = 0;
  int64_t eta_ops_since_factor_ = 0;
};

}  // namespace

std::unique_ptr<BasisFactorization> MakeLuFactorization(
    const LuKernelOptions& kernel) {
  return std::make_unique<LuBasisFactorization>(kernel);
}

std::unique_ptr<BasisFactorization> MakeDenseFactorization() {
  return std::make_unique<DenseBasisFactorization>();
}

}  // namespace savg
