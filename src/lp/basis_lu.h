// The basis factorization of the revised simplex.
//
// The simplex never forms B^-1 explicitly: it asks a BasisFactorization
// for the two triangular-solve primitives
//
//   Ftran:  solve B w = a      (entering column in basic coordinates)
//   Btran:  solve B' y = c_B   (pricing multipliers)
//
// plus a product-form Update() applied after every pivot. The
// factorization is a sparse left-looking LU that visits only the earlier
// pivots each column reaches, with threshold partial pivoting and a static
// fill-reducing column order (ascending nonzero count). Pivots append eta
// terms to a product-form eta file. The basis columns arrive in one flat
// column-major array (ColumnMatrix, the simplex's own constraint storage),
// and all factors and the eta file are stored as flat contiguous (index,
// value) streams with sorted indices. The Ftran/Btran kernels are
// hypersparse: each triangular pass finds the pivots its input reaches
// over the factors' structure and runs the inner loops over those only,
// in the order of a loop over every pivot, so a solve costs O(reach +
// output nonzeros + eta file) rather than O(n) — and returns what the
// full loops would, up to the sign of a zero. A reach past a fixed
// fraction of n runs the full zero-skipping loops instead.
//
// When to refactorize is the caller's policy decision; the factorization
// exports the deterministic work counters that policy needs (factor_ops,
// eta_ops_since_factor). The simplex's rent-or-buy rule (lp/simplex.cc)
// prices them in measured nanoseconds rather than reading a clock, so
// solve paths stay bit-reproducible across machines and thread counts.

#pragma once

#include <cstdint>
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

/// Sparse LU of a simplex basis with a product-form eta file (the
/// algorithm is described in basis_lu.cc).
class BasisFactorization {
 public:
  /// Factorizes the basis matrix whose position-i column is
  /// columns[basis[i]]. Clears any pending eta updates. Returns
  /// kNumericalError if the basis is (near-)singular.
  Status Factorize(const ColumnMatrix& columns, const std::vector<int>& basis);

  /// v := B^-1 v (entering-column transform). Size num_rows. Without the
  /// vector's pattern this runs the full loops: finding the pattern would
  /// cost a pass over v already.
  void Ftran(std::vector<double>* v) const { FtranFrom(v, nullptr, nullptr); }

  /// v := B^-T v (pricing transform). Size num_rows; full loops like
  /// Ftran(v).
  void Btran(std::vector<double>* v) const { BtranFrom(v, nullptr); }

  /// Ftran of a vector whose pattern the caller knows, which lets the
  /// hypersparse solve skip the pivots it does not reach: on entry *nz
  /// lists, without duplicates, every index whose entry of *v is not +0.0.
  /// Returns true with *nz listing, ascending, every index where the
  /// result is not +0.0; returns false (*nz unspecified) when the solve
  /// reached too much of the basis to track it.
  bool Ftran(std::vector<double>* v, std::vector<int>* nz) const {
    return FtranFrom(v, nz, nz);
  }

  /// Btran of a vector whose pattern the caller knows (as for Ftran).
  void Btran(std::vector<double>* v, const std::vector<int>& nz) const {
    BtranFrom(v, &nz);
  }

  /// Replaces the basis column at position `leaving_pos` with the column
  /// whose Ftran image is `w` (product-form update); `nz` lists, ascending,
  /// every index where w may be nonzero (the pattern Ftran returned, or
  /// every index). Returns kNumericalError when |w[leaving_pos]| is too
  /// small to pivot on — the caller must refactorize.
  Status Update(const std::vector<double>& w, const std::vector<int>& nz,
                int leaving_pos);

  /// Drops the eta file, so the factorization is again exactly what the
  /// last successful Factorize() left: the LU depends only on the basis
  /// columns it was handed, so re-factorizing the same basis of the same
  /// columns would rebuild it bit for bit. The caller must know both are
  /// unchanged.
  void DiscardEtas();

  /// Product-form eta terms accumulated since the last Factorize().
  int eta_count() const { return static_cast<int>(eta_pos_.size()); }

  // --- deterministic work counters for the refactorization rule --------

  /// Nonzeros currently stored in the product-form eta file, pivots
  /// included: what one Btran streams on top of the factor solve.
  int64_t eta_nonzeros() const {
    return static_cast<int64_t>(eta_rows_.size()) +
           static_cast<int64_t>(eta_pos_.size());
  }

  /// Nonzeros of the L and U factors plus the diagonal. No policy reads
  /// it; LuFactorTest bounds the left-looking pass by it.
  int64_t factor_nonzeros() const {
    return static_cast<int64_t>(l_rows_.size()) +
           static_cast<int64_t>(u_ks_.size()) + n_;
  }

  /// Arithmetic term visits of the most recent Factorize(): basis
  /// nonzeros loaded, L terms folded in, and rows touched per column (2n
  /// for an all-slack basis). The refactorization rule prices an LU by
  /// it; the pivot visits grow in proportion, so the price per op
  /// carries them.
  int64_t factor_ops() const { return factor_ops_; }

  /// Earlier pivots the most recent Factorize()'s left-looking pass
  /// visited, summed over columns: the count that shows the pass is linear
  /// in the nonzeros rather than quadratic in the dimension. Read-only.
  int64_t factor_pivot_visits() const { return factor_pivot_visits_; }

  /// Entries the most recent Ftran or Btran visited: its input pattern, the
  /// pivots and factor terms its reach walked and applied (every pivot, for
  /// a full loop), and the eta file's pivots and terms. The count that
  /// shows a solve pays for what it reaches rather than for n. Read-only;
  /// no policy uses it.
  int64_t solve_visits() const { return solve_visits_; }

  /// Eta entries the Ftran/Btran calls since the last Factorize() (or
  /// DiscardEtas()) streamed: one per eta visited plus the terms of every
  /// eta applied. Btran applies every eta; Ftran skips an eta whose pivot
  /// entry is zero. The rent the eta file has charged so far.
  int64_t eta_ops_since_factor() const { return eta_ops_since_factor_; }

 private:
  /// One entry of a row list: its column (pivot k) and the next entry on
  /// the same row (-1 ends the list).
  struct RowLink {
    int k;
    int next;
  };

  /// Ftran from the input pattern `in` (null: unknown, run the full
  /// loops). With `out`, tracks the result's pattern into *out (ascending)
  /// and returns whether it could; `out` may alias `in`.
  bool FtranFrom(std::vector<double>* v, const std::vector<int>* in,
                 std::vector<int>* out) const;

  /// Btran from the input pattern `in` (null: unknown, run the full loops).
  void BtranFrom(std::vector<double>* v, const std::vector<int>* in) const;

  // The four triangular inner loops, one pivot k each. Running them over
  // every k in loop order is the dense solve; running them over a sorted
  // reach skips only pivots whose terms are all exact zeros.

  /// L segment k in row space: x -= l_k * x[pivot row of k].
  void EliminateL(double* x, int k) const;
  /// U column k in pivot coordinates, backward substitution.
  void SolveU(double* z, int k) const;
  /// Row k of U', forward substitution (gather over U column k).
  void SolveUTransposed(double* z, int k) const;
  /// Row k of L' in row space (gather over L segment k).
  void SolveLTransposed(double* x, int k) const;

  /// Unmarks every index in O(1): only mark_ entries equal to stamp_ count.
  void NewStamp() const;
  /// Starts an empty reach.
  void NewReach() const;
  /// Starts a reach seeded with the current one's pivots.
  void ReseedReach() const;
  void AddToReach(int k) const;
  size_t ReachLimit() const;
  /// Starts a reach at the pivots map[i] of the pattern `in`. Returns
  /// false, seeding nothing, when there is no pattern or it alone passes
  /// the cutoff.
  bool SeedReach(const std::vector<int>* in, const int* map) const;
  /// Closes reach_ under the edges that `expand(k)` adds for each reached
  /// pivot k (it returns how many it walked). Returns false, with reach_
  /// partial, once the reach passes the dense cutoff.
  template <typename Expand>
  bool CloseReach(Expand expand) const;
  /// Adds the column of every entry on one row list to the reach; returns
  /// the entries walked.
  int64_t WalkRow(int head, const std::vector<RowLink>& links) const;
  /// Prepends an entry of column k on `row` to that row's list.
  static void Link(int k, int row, std::vector<int>* head,
                   std::vector<RowLink>* links);
  /// Queues the pivot of `row` for the left-looking pass, once.
  void Reach(int row);

  int n_ = 0;
  std::vector<int> pos_of_k_, k_of_pos_;
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
  /// Row-wise index lists of U and L for Btran's reach (RowLink), linked as
  /// Factorize appends the entries: u_row_head_[j] starts the list of U
  /// entries in pivot row j, l_row_head_[row] that of L entries in `row`.
  std::vector<int> u_row_head_, l_row_head_;
  std::vector<RowLink> u_links_, l_links_;
  /// Solve scratch: z_ (pivot coordinates) is all zero between calls;
  /// mark_[i] == stamp_ marks index i as in the current reach_ (or output
  /// pattern).
  mutable std::vector<double> z_;
  mutable std::vector<uint32_t> mark_;
  mutable uint32_t stamp_ = 0;
  mutable std::vector<int> reach_;
  int64_t factor_ops_ = 0;
  int64_t factor_pivot_visits_ = 0;
  mutable int64_t solve_visits_ = 0;
  mutable int64_t eta_ops_since_factor_ = 0;
};

}  // namespace savg
