// Euclidean projection onto the "capped simplex"
//
//   D(k) = { x in R^m : sum_j x_j = k,  0 <= x_j <= 1 }.
//
// In the compact SVGIC relaxation LP_SIMP (Section 4.4) each user's
// fractional item vector x_u lives in exactly this polytope, so the
// projected-subgradient LP solver projects onto a product of capped
// simplices. The projection is computed by bisection on the shift `t` in
// x_j = clamp(v_j - t, 0, 1), whose total mass is monotone in t.
//
// Cost. The bracket [lo, hi] starts as [min v - 1, max v] and halves until
// it is narrower than 1e-10, ~35 midpoints on a subgradient step. Each
// midpoint sums clamp(v_j - mid, 0, 1) only over the coordinates with
// v_j > lo, kept in index order in a list that is compacted whenever lo
// rises. `lo` only rises and every midpoint lies at or above it, so a
// coordinate at or below lo adds exactly +0.0 at every later midpoint, and
// leaving a +0.0 out of a sum of non-negative terms changes none of its
// bits. Every comparison, the final t, the clamp pass and the mass
// correction are therefore those of a full pass over all m coordinates.
// After a subgradient step most of an agent's items sit below the floor,
// so the list shrinks within a few midpoints: on Yelp 40x2000x10 a
// projection sums ~5.4k terms instead of ~70k. The minmax, clamp and
// correction passes stay O(m).

#pragma once

#include <cstddef>
#include <vector>

namespace savg {

/// Projects v[0..m) onto D(k) in Euclidean norm, in place. Requires
/// 0 <= k <= m. Accurate to 1e-10 in the mass constraint.
void ProjectCappedSimplex(double* v, size_t m, double k);

/// Linear maximization oracle over D(k): returns the vertex that puts mass 1
/// on the k largest entries of `gradient` (fractional mass on the boundary
/// entry if k is not integral).
std::vector<double> CappedSimplexLmo(const std::vector<double>& gradient,
                                     double k);

}  // namespace savg
