#include "lp/basis_lu.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>


namespace savg {

namespace {

constexpr double kPivotTolerance = 1e-11;
constexpr double kUpdatePivotTolerance = 1e-9;
/// Threshold partial pivoting: accept a sparser pivot row whose magnitude
/// is within this factor of the column maximum.
constexpr double kThresholdPivoting = 0.1;
/// A solve whose reach passes n / kDenseReachDivisor pivots abandons the
/// search and runs the full zero-skipping loops. Divisors from 5 to 40
/// timed alike on the exact planning LPs and on chains of warm resolves
/// (3.6k rows); 10 sits in the middle of that plateau.
constexpr int kDenseReachDivisor = 10;

/// True unless x is +0.0: a -0.0 is an entry the full loops would carry
/// into the result, so the reach carries it too.
bool IsSet(double x) { return x != 0.0 || std::signbit(x); }

}  // namespace

// Left-looking LU of the basis matrix with threshold partial pivoting and
// a static ascending-nonzero column order. Each column folds in only the
// earlier pivots it reaches (Gilbert & Peierls's reach), taken from a
// min-heap in ascending pivot order rather than a DFS topological order,
// so the subtractions run in the natural k order. Factorization work is
// the arithmetic itself plus O(n) setup, up to the heap's log factor;
// no column probes the pivots it does not reach.
// L is kept as an ordered elimination eta file, U column-wise in pivot
// coordinates. Everything — L, U and the product-form eta file — lives in
// flat (index, value) arrays with ascending indices per segment, so the
// solve kernels stream contiguous memory instead of chasing a
// vector-of-vectors.
//
// The solves are hypersparse in the same way (Gilbert & Peierls; Hall &
// McKinnon): each triangular pass first closes the set of pivots its
// input reaches over the factor's structure, sorts that reach into the
// order a loop over every pivot would take, and runs the same inner loop
// over the reached pivots only. A pivot outside the reach holds an exact
// zero, which the full loop would skip or fold in as a zero term, so the
// results equal the full loops' up to the sign of a zero. Btran walks the
// reach over row-wise index lists of U and L, which Factorize() links as
// it appends each entry. A reach past n / kDenseReachDivisor abandons the
// search and runs the full loop, and so does a solve handed no pattern.
// The eta file is walked in full, O(eta count) per solve: Btran's gather
// streams every eta term, Ftran only the terms of etas whose pivot entry
// is nonzero, and eta_ops_since_factor() charges exactly the entries each
// streamed. Update() builds its eta from the pattern Ftran returned, so a
// pivot's eta costs its nonzeros too.

void BasisFactorization::DiscardEtas() {
  eta_pos_.clear();
  eta_pivot_.clear();
  eta_off_.assign(1, 0);
  eta_rows_.clear();
  eta_vals_.clear();
  eta_ops_since_factor_ = 0;
}

inline void BasisFactorization::Link(int k, int row, std::vector<int>* head,
                                     std::vector<RowLink>* links) {
  links->push_back({k, (*head)[row]});
  (*head)[row] = static_cast<int>(links->size()) - 1;
}

inline void BasisFactorization::Reach(int row) {
  const int k = k_of_row_[row];
  if (k < 0 || queued_[k]) return;
  queued_[k] = 1;
  reached_.push_back(k);
  std::push_heap(reached_.begin(), reached_.end(), std::greater<int>());
}

inline void BasisFactorization::NewStamp() const {
  if (++stamp_ == 0) {
    std::fill(mark_.begin(), mark_.end(), 0);
    stamp_ = 1;
  }
}

inline void BasisFactorization::NewReach() const {
  reach_.clear();
  NewStamp();
}

inline void BasisFactorization::ReseedReach() const {
  NewStamp();
  for (int k : reach_) mark_[k] = stamp_;
}

inline void BasisFactorization::AddToReach(int k) const {
  if (mark_[k] == stamp_) return;
  mark_[k] = stamp_;
  reach_.push_back(k);
}

inline size_t BasisFactorization::ReachLimit() const {
  return static_cast<size_t>(n_ / kDenseReachDivisor);
}

inline bool BasisFactorization::SeedReach(const std::vector<int>* in,
                                          const int* map) const {
  NewReach();
  if (in == nullptr || in->size() > ReachLimit()) return false;
  solve_visits_ += static_cast<int64_t>(in->size());
  for (int i : *in) AddToReach(map[i]);
  return true;
}

template <typename Expand>
bool BasisFactorization::CloseReach(Expand expand) const {
  const size_t limit = ReachLimit();
  for (size_t next = 0; next < reach_.size(); ++next) {
    if (reach_.size() > limit) return false;
    solve_visits_ += 1 + expand(reach_[next]);
  }
  return reach_.size() <= limit;
}

inline int64_t BasisFactorization::WalkRow(
    int head, const std::vector<RowLink>& links) const {
  int64_t walked = 0;
  for (int e = head; e >= 0; e = links[e].next, ++walked) {
    AddToReach(links[e].k);
  }
  return walked;
}

inline void BasisFactorization::EliminateL(double* x, int k) const {
  const double xk = x[pivot_row_of_k_[k]];
  solve_visits_ += 1;
  if (xk == 0.0) return;
  for (int64_t i = l_off_[k]; i < l_off_[k + 1]; ++i) {
    x[l_rows_[i]] -= l_vals_[i] * xk;
  }
  solve_visits_ += l_off_[k + 1] - l_off_[k];
}

inline void BasisFactorization::SolveU(double* z, int k) const {
  solve_visits_ += 1;
  if (z[k] == 0.0) return;
  const double t = z[k] / diag_[k];
  z[k] = t;
  for (int64_t i = u_off_[k]; i < u_off_[k + 1]; ++i) {
    z[u_ks_[i]] -= u_vals_[i] * t;
  }
  solve_visits_ += u_off_[k + 1] - u_off_[k];
}

inline void BasisFactorization::SolveUTransposed(double* z, int k) const {
  double acc = z[k];
  for (int64_t i = u_off_[k]; i < u_off_[k + 1]; ++i) {
    acc -= u_vals_[i] * z[u_ks_[i]];
  }
  z[k] = acc / diag_[k];
  solve_visits_ += 1 + u_off_[k + 1] - u_off_[k];
}

inline void BasisFactorization::SolveLTransposed(double* x, int k) const {
  double acc = x[pivot_row_of_k_[k]];
  for (int64_t i = l_off_[k]; i < l_off_[k + 1]; ++i) {
    acc -= l_vals_[i] * x[l_rows_[i]];
  }
  x[pivot_row_of_k_[k]] = acc;
  solve_visits_ += 1 + l_off_[k + 1] - l_off_[k];
}

Status BasisFactorization::Factorize(const ColumnMatrix& columns,
                                     const std::vector<int>& basis) {
  const int n = static_cast<int>(basis.size());
  n_ = n;
  DiscardEtas();
  int64_t ops = 0;
  int64_t pivot_visits = 0;
  pos_of_k_.assign(n, -1);
  k_of_pos_.assign(n, -1);
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
  u_row_head_.assign(n, -1);
  u_links_.clear();
  l_row_head_.assign(n, -1);
  l_links_.clear();
  z_.assign(n, 0.0);
  mark_.assign(n, 0);
  stamp_ = 0;

  // Static fill-reducing order: sparsest basis columns pivot first, ties
  // in position order (a counting sort by column size).
  std::vector<int> order(n);
  {
    int64_t max_size = 0;
    for (int col : basis) max_size = std::max(max_size, columns[col].size());
    std::vector<int> next(max_size + 2, 0);
    for (int col : basis) ++next[columns[col].size() + 1];
    for (int64_t s = 1; s <= max_size; ++s) next[s] += next[s - 1];
    for (int pos = 0; pos < n; ++pos) {
      order[next[columns[basis[pos]].size()]++] = pos;
    }
  }

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
    k_of_pos_[pos] = k;
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
      Link(k, row, &l_row_head_, &l_links_);
    }
    for (const auto& [krow, value] : uterms) {
      u_ks_.push_back(krow);
      u_vals_.push_back(value);
      Link(k, krow, &u_row_head_, &u_links_);
    }
    l_off_.push_back(static_cast<int64_t>(l_rows_.size()));
    u_off_.push_back(static_cast<int64_t>(u_ks_.size()));
  }
  factor_ops_ = ops;
  factor_pivot_visits_ = pivot_visits;
  return Status::OK();
}

Status BasisFactorization::Update(const std::vector<double>& w,
                                  const std::vector<int>& nz,
                                  int leaving_pos) {
  const double pivot = w[leaving_pos];
  if (std::abs(pivot) < kUpdatePivotTolerance) {
    return Status::NumericalError("tiny pivot in product-form update");
  }
  eta_pos_.push_back(leaving_pos);
  eta_pivot_.push_back(pivot);
  // The pattern is ascending, so the segment lands pre-sorted.
  for (int i : nz) {
    if (i == leaving_pos || w[i] == 0.0) continue;
    eta_rows_.push_back(i);
    eta_vals_.push_back(w[i]);
  }
  eta_off_.push_back(static_cast<int64_t>(eta_rows_.size()));
  return Status::OK();
}

bool BasisFactorization::FtranFrom(std::vector<double>* v,
                                   const std::vector<int>* in,
                                   std::vector<int>* out) const {
  solve_visits_ = 0;
  double* x = v->data();
  double* z = z_.data();
  // L pass in elimination order (original row space), over the pivots
  // whose rows the input and the earlier eliminations write.
  bool sparse = SeedReach(in, k_of_row_.data()) && CloseReach([&](int k) {
    for (int64_t i = l_off_[k]; i < l_off_[k + 1]; ++i) {
      AddToReach(k_of_row_[l_rows_[i]]);
    }
    return l_off_[k + 1] - l_off_[k];
  });
  if (sparse) {
    std::sort(reach_.begin(), reach_.end());
    for (int k : reach_) EliminateL(x, k);
    // Gather into pivot coordinates; x is left all zero.
    for (int k : reach_) {
      double& xr = x[pivot_row_of_k_[k]];
      z[k] = xr;
      xr = 0.0;
    }
    ReseedReach();
    sparse = CloseReach([&](int k) {
      for (int64_t i = u_off_[k]; i < u_off_[k + 1]; ++i) {
        AddToReach(u_ks_[i]);
      }
      return u_off_[k + 1] - u_off_[k];
    });
  } else {
    for (int k = 0; k < n_; ++k) EliminateL(x, k);
    for (int k = 0; k < n_; ++k) z[k] = x[pivot_row_of_k_[k]];
    std::fill(v->begin(), v->end(), 0.0);
  }
  // Backward-solve U, scatter to basis-position space; z is left all
  // zero.
  if (sparse) {
    std::sort(reach_.begin(), reach_.end(), std::greater<int>());
    for (int k : reach_) SolveU(z, k);
    for (int k : reach_) {
      x[pos_of_k_[k]] = z[k];
      z[k] = 0.0;
    }
  } else {
    for (int k = n_ - 1; k >= 0; --k) SolveU(z, k);
    for (int k = 0; k < n_; ++k) x[pos_of_k_[k]] = z[k];
    std::fill(z_.begin(), z_.end(), 0.0);
  }
  const bool track = sparse && out != nullptr;
  if (track) {
    NewStamp();
    out->clear();
    for (int k : reach_) {
      mark_[pos_of_k_[k]] = stamp_;
      out->push_back(pos_of_k_[k]);
    }
  }
  // Product-form eta file, forward order.
  const int num_etas = static_cast<int>(eta_pos_.size());
  int64_t streamed = num_etas;
  for (int e = 0; e < num_etas; ++e) {
    double& vp = x[eta_pos_[e]];
    if (vp == 0.0) continue;
    const double t = vp / eta_pivot_[e];
    vp = t;
    for (int64_t i = eta_off_[e]; i < eta_off_[e + 1]; ++i) {
      x[eta_rows_[i]] -= eta_vals_[i] * t;
    }
    streamed += eta_off_[e + 1] - eta_off_[e];
    if (!track) continue;
    for (int64_t i = eta_off_[e]; i < eta_off_[e + 1]; ++i) {
      const int row = eta_rows_[i];
      if (mark_[row] == stamp_) continue;
      mark_[row] = stamp_;
      out->push_back(row);
    }
  }
  solve_visits_ += streamed;
  eta_ops_since_factor_ += streamed;
  if (track) std::sort(out->begin(), out->end());
  return track;
}

void BasisFactorization::BtranFrom(std::vector<double>* v,
                                   const std::vector<int>* in) const {
  solve_visits_ = eta_nonzeros();
  eta_ops_since_factor_ += solve_visits_;
  double* x = v->data();
  double* z = z_.data();
  // Eta file, reverse order. Accumulation (gather) form: each segment
  // reduces into one entry, so the loop body is branch-free.
  for (int e = static_cast<int>(eta_pos_.size()) - 1; e >= 0; --e) {
    double acc = x[eta_pos_[e]];
    for (int64_t i = eta_off_[e]; i < eta_off_[e + 1]; ++i) {
      acc -= eta_vals_[i] * x[eta_rows_[i]];
    }
    x[eta_pos_[e]] = acc / eta_pivot_[e];
  }
  // Forward-solve U' in pivot coordinates over the pivots the input and
  // the eta pivots reach along U's rows.
  bool sparse = SeedReach(in, k_of_pos_.data());
  if (sparse) {
    for (int pos : eta_pos_) {
      if (IsSet(x[pos])) AddToReach(k_of_pos_[pos]);
    }
    sparse = CloseReach([&](int j) {
      return WalkRow(u_row_head_[j], u_links_);
    });
  }
  if (sparse) {
    std::sort(reach_.begin(), reach_.end());
    for (int k : reach_) {
      double& xp = x[pos_of_k_[k]];
      z[k] = xp;
      xp = 0.0;
    }
    for (int k : reach_) SolveUTransposed(z, k);
    // Scatter to row space, then backward-solve L' over the pivots the
    // scattered rows reach along L's rows.
    for (int k : reach_) {
      x[pivot_row_of_k_[k]] = z[k];
      z[k] = 0.0;
    }
    ReseedReach();
    if (CloseReach([&](int j) {
          return WalkRow(l_row_head_[pivot_row_of_k_[j]], l_links_);
        })) {
      std::sort(reach_.begin(), reach_.end(), std::greater<int>());
      for (int k : reach_) SolveLTransposed(x, k);
      return;
    }
  } else {
    for (int k = 0; k < n_; ++k) z[k] = x[pos_of_k_[k]];
    std::fill(v->begin(), v->end(), 0.0);
    for (int k = 0; k < n_; ++k) SolveUTransposed(z, k);
    for (int k = 0; k < n_; ++k) x[pivot_row_of_k_[k]] = z[k];
    std::fill(z_.begin(), z_.end(), 0.0);
  }
  for (int k = n_ - 1; k >= 0; --k) SolveLTransposed(x, k);
}

}  // namespace savg
