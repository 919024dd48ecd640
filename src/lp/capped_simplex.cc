#include "lp/capped_simplex.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace savg {

namespace {

/// Bisection stops once the bracket on t is this narrow; the mass
/// correction then spreads any deficit above it over interior coordinates.
constexpr double kMassTolerance = 1e-10;

}  // namespace

void ProjectCappedSimplex(double* v, size_t m, double k) {
  if (m == 0) return;
  if (k <= 0.0) {
    std::fill(v, v + m, 0.0);
    return;
  }
  if (k >= static_cast<double>(m)) {
    std::fill(v, v + m, 1.0);
    return;
  }
  // mass(t) = sum_j clamp(v_j - t, 0, 1) is continuous, non-increasing in t.
  const auto [mn, mx] = std::minmax_element(v, v + m);
  double lo = *mn - 1.0;  // mass(lo) = m >= k
  double hi = *mx;        // mass(hi) = 0 <= k
  // live[0..num_live) holds every v_j above lo, in index order. The rest
  // add +0.0 at every later midpoint, so skipping them keeps each mass's
  // bits (see the header).
  std::vector<double> live(v, v + m);
  size_t num_live = m;
  for (int iter = 0; iter < 100; ++iter) {
    const double mid = 0.5 * (lo + hi);
    double mass = 0.0;
    for (size_t i = 0; i < num_live; ++i) {
      mass += std::clamp(live[i] - mid, 0.0, 1.0);
    }
    if (mass > k) {
      lo = mid;
      size_t kept = 0;
      for (size_t i = 0; i < num_live; ++i) {
        const double x = live[i];
        live[kept] = x;
        kept += x > lo;
      }
      num_live = kept;
    } else {
      hi = mid;
    }
    if (hi - lo < kMassTolerance) break;
  }
  const double t = 0.5 * (lo + hi);
  double total = 0.0;
  for (size_t j = 0; j < m; ++j) {
    v[j] = std::clamp(v[j] - t, 0.0, 1.0);
    total += v[j];
  }
  // Tiny mass correction distributed over interior coordinates.
  double deficit = k - total;
  if (std::abs(deficit) > kMassTolerance) {
    for (size_t j = 0; j < m; ++j) {
      double& x = v[j];
      if (deficit > 0 && x < 1.0) {
        const double add = std::min(1.0 - x, deficit);
        x += add;
        deficit -= add;
      } else if (deficit < 0 && x > 0.0) {
        const double sub = std::min(x, -deficit);
        x -= sub;
        deficit += sub;
      }
      if (std::abs(deficit) <= kMassTolerance) break;
    }
  }
}

std::vector<double> CappedSimplexLmo(const std::vector<double>& gradient,
                                     double k) {
  const size_t m = gradient.size();
  std::vector<double> x(m, 0.0);
  if (k <= 0.0) return x;
  if (k >= static_cast<double>(m)) {
    std::fill(x.begin(), x.end(), 1.0);
    return x;
  }
  std::vector<size_t> order(m);
  std::iota(order.begin(), order.end(), size_t{0});
  const size_t whole = static_cast<size_t>(k);
  std::partial_sort(order.begin(),
                    order.begin() + std::min(m, whole + 1), order.end(),
                    [&](size_t a, size_t b) {
                      return gradient[a] > gradient[b];
                    });
  for (size_t i = 0; i < whole && i < m; ++i) x[order[i]] = 1.0;
  const double frac = k - static_cast<double>(whole);
  if (frac > 0.0 && whole < m) x[order[whole]] = frac;
  return x;
}

}  // namespace savg
