// Basis factorization backends for the revised simplex.
//
// The simplex never forms B^-1 explicitly any more: it asks a
// BasisFactorization for the two triangular-solve primitives
//
//   Ftran:  solve B w = a      (entering column in basic coordinates)
//   Btran:  solve B' y = c_B   (pricing multipliers)
//
// plus a product-form Update() applied after every pivot. Two backends:
//
//  * LuBasisFactorization — sparse left-looking LU that visits only the
//    earlier pivots each column reaches, with threshold partial pivoting
//    and a static fill-reducing column order (ascending nonzero count).
//    Pivots append eta terms to a product-form eta file. The basis
//    columns arrive in one flat column-major array (ColumnMatrix, the
//    simplex's own constraint storage), and all factors and the eta file
//    are stored as flat contiguous (index, value) streams with sorted
//    indices. The Ftran/Btran kernels are hypersparse: each triangular
//    pass finds the pivots its input reaches over the factors' structure
//    and runs the inner loops over those only, in the order of a loop
//    over every pivot, so a solve costs O(reach + output nonzeros + eta
//    file) rather than O(n) — and returns what the full loops would, up
//    to the sign of a zero. A reach past a fixed fraction of n runs the
//    full zero-skipping loops instead.
//  * DenseBasisFactorization — the legacy explicit dense inverse
//    (Gauss-Jordan refactorization, dense eta row operations). O(n^2) per
//    solve and O(n^3) per refactorization; kept as the reference path for
//    the sparse/dense equivalence test suite and for debugging.
//
// When to refactorize is the caller's policy decision; the backend exports
// the deterministic work counters that policy needs (eta_nonzeros,
// factor_nonzeros, factor_ops, eta_ops_since_factor). The simplex's
// adaptive refactorization rule (lp/simplex.h) is built on these counters
// rather than wall-clock measurements so that solve paths stay
// bit-reproducible across machines and thread counts.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/status.h"

namespace savg {

/// One stored coefficient of a sparse column.
struct ColumnEntry {
  int row = 0;
  double coef = 0.0;
};

/// The contiguous entries of one column of a ColumnMatrix.
class ColumnView {
 public:
  ColumnView(const ColumnEntry* first, const ColumnEntry* last)
      : first_(first), last_(last) {}
  const ColumnEntry* begin() const { return first_; }
  const ColumnEntry* end() const { return last_; }
  int64_t size() const { return last_ - first_; }

 private:
  const ColumnEntry* first_;
  const ColumnEntry* last_;
};

/// Column-major sparse matrix in one flat entry array (compressed sparse
/// column): column j's (row, coef) entries are
/// entries[start[j], start[j + 1]), with no duplicate rows. Both the
/// simplex's constraint matrix and every basis handed to Factorize() use
/// it, so a column scan streams one array instead of chasing a heap node
/// per column.
struct ColumnMatrix {
  std::vector<int64_t> start = {0};  ///< num_cols() + 1 offsets
  std::vector<ColumnEntry> entries;

  int num_cols() const { return static_cast<int>(start.size()) - 1; }
  ColumnView operator[](int j) const {
    return {entries.data() + start[j], entries.data() + start[j + 1]};
  }
};

class BasisFactorization {
 public:
  virtual ~BasisFactorization() = default;

  /// Factorizes the basis matrix whose position-i column is
  /// columns[basis[i]]. Clears any pending eta updates. Returns
  /// kNumericalError if the basis is (near-)singular.
  virtual Status Factorize(const ColumnMatrix& columns,
                           const std::vector<int>& basis) = 0;

  /// v := B^-1 v (entering-column transform). Size num_rows. Without the
  /// vector's pattern this is an O(n) solve.
  virtual void Ftran(std::vector<double>* v) const = 0;

  /// v := B^-T v (pricing transform). Size num_rows; O(n) like Ftran(v).
  virtual void Btran(std::vector<double>* v) const = 0;

  /// Ftran of a vector whose pattern the caller knows, which lets a
  /// hypersparse solve skip the pivots it does not reach: on entry *nz
  /// lists, without duplicates, every index whose entry of *v is not +0.0.
  /// Returns true with *nz listing, ascending, every index where the
  /// result is not +0.0; returns false (*nz unspecified) when the solve
  /// reached too much of the basis to track it.
  virtual bool Ftran(std::vector<double>* v, std::vector<int>* nz) const = 0;

  /// Btran of a vector whose pattern the caller knows (as for Ftran).
  virtual void Btran(std::vector<double>* v,
                     const std::vector<int>& nz) const = 0;

  /// Replaces the basis column at position `leaving_pos` with the column
  /// whose Ftran image is `w` (product-form update); `nz` lists, ascending,
  /// every index where w may be nonzero (the pattern Ftran returned, or
  /// every index). Returns kNumericalError when |w[leaving_pos]| is too
  /// small to pivot on — the caller must refactorize.
  virtual Status Update(const std::vector<double>& w,
                        const std::vector<int>& nz, int leaving_pos) = 0;

  /// Product-form eta terms accumulated since the last Factorize().
  virtual int eta_count() const = 0;

  /// Total factorizations performed over the lifetime.
  virtual int factorizations() const = 0;

  // --- deterministic work counters for adaptive refactorization ---------

  /// Nonzeros currently stored in the product-form eta file. The direct
  /// measure of eta density: every Ftran/Btran pays one multiply-add per
  /// eta nonzero on top of the factor solve.
  virtual int64_t eta_nonzeros() const = 0;

  /// Nonzeros of the L and U factors (plus diagonal): the per-solve cost
  /// of a freshly factorized basis, the baseline eta growth is judged
  /// against.
  virtual int64_t factor_nonzeros() const = 0;

  /// Arithmetic term visits of the most recent Factorize(): basis
  /// nonzeros loaded, L terms folded in, and rows touched per column —
  /// what one refactorization costs in the same unit as
  /// eta_ops_since_factor(). It excludes the left-looking pass's pivot
  /// visits (heap work) and the O(n) setup, and stays that way because the
  /// adaptive refactor policy prices a refactorization with it.
  virtual int64_t factor_ops() const = 0;

  /// Earlier pivots the most recent Factorize()'s left-looking pass
  /// visited, summed over columns: the count that shows the pass is linear
  /// in the nonzeros rather than quadratic in the dimension. Read-only;
  /// no policy uses it.
  virtual int64_t factor_pivot_visits() const = 0;

  /// Entries the most recent Ftran or Btran visited: its input pattern, the
  /// pivots and factor terms its reach walked and applied (every pivot, for
  /// a full loop), and the eta file's pivots and terms. The count that
  /// shows a solve pays for what it reaches rather than for n. Read-only;
  /// no policy uses it.
  virtual int64_t solve_visits() const = 0;

  /// Accumulated eta-file work performed by Ftran/Btran calls since the
  /// last Factorize(): the extra solve cost the eta chain has already
  /// charged. Once this exceeds factor_ops(), refactorizing earlier would
  /// have been cheaper (the rent-or-buy trigger of the adaptive policy).
  virtual int64_t eta_ops_since_factor() const = 0;
};

/// Sparse LU backend (the default).
std::unique_ptr<BasisFactorization> MakeLuFactorization();

/// Legacy dense-inverse backend (reference/equivalence path).
std::unique_ptr<BasisFactorization> MakeDenseFactorization();

}  // namespace savg
