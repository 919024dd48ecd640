// Approximate solver for the compact SVGIC relaxation, written as a generic
// "pairwise concave allocation" problem:
//
//   maximize  sum_a sum_c L[a][c] * x[a][c]
//           + sum_{pairs (a,b)} sum_c W[(a,b)][c] * min(x[a][c], x[b][c])
//   s.t.      x_a in D(k) = { sum_c x = k, 0 <= x <= 1 }   for every agent a.
//
// This is exactly LP_SIMP (Section 4.4) after eliminating the auxiliary
// y-variables (at an LP optimum y_e^c = min(x_u^c, x_v^c) since the weights
// are non-negative). The objective is concave piecewise-linear, so projected
// supergradient ascent plus an exact per-agent block-coordinate "polish"
// yields a beta-approximate fractional solution; by the paper's Corollary
// 4.2, rounding it with CSF gives a 4*beta-approximation. This is the
// large-instance path; small instances use the exact simplex.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/status.h"

namespace savg {

/// One unordered agent pair with sparse per-item social weights
/// (w = tau(u,v,c) + tau(v,u,c), scaled).
struct ConcavePair {
  int a = 0;
  int b = 0;
  /// (item, weight), sorted by item, weights > 0.
  std::vector<std::pair<int, double>> weights;
};

/// Problem data for the reduced concave maximization.
struct PairwiseConcaveProblem {
  int num_agents = 0;
  int num_items = 0;
  double k = 1.0;  ///< mass per agent (number of display slots)
  /// Linear (preference) coefficients, row-major num_agents x num_items.
  std::vector<double> linear;
  std::vector<ConcavePair> pairs;

  double& L(int a, int c) {
    return linear[static_cast<size_t>(a) * num_items + c];
  }
  double L(int a, int c) const {
    return linear[static_cast<size_t>(a) * num_items + c];
  }

  /// Exact objective value of a feasible point (x row-major).
  double Evaluate(const std::vector<double>& x) const;
};

struct SubgradientOptions {
  int max_iterations = 80;
  /// Exact per-agent block-coordinate maximization sweeps after the
  /// subgradient phase (0 disables polishing).
  int polish_sweeps = 8;
  /// Optional warm-start point (row-major num_agents x num_items; blocks
  /// outside D(k) are projected onto it, so a stale-but-close point is
  /// fine, and blocks inside are kept as given).
  /// Considered alongside the built-in starting points, best wins. Not
  /// owned; must outlive the solve. The sharded coordinator hands each
  /// shard its previous round's solution here, which is what makes many
  /// dual rounds affordable.
  const std::vector<double>* initial_x = nullptr;
};

struct SubgradientSolution {
  std::vector<double> x;
  double objective = 0.0;
};

/// Runs projected supergradient ascent followed by block-coordinate
/// polishing. Always succeeds on well-formed input.
Result<SubgradientSolution> MaximizePairwiseConcave(
    const PairwiseConcaveProblem& problem,
    const SubgradientOptions& options = {});

/// Exactly maximizes agent `a`'s block with all other agents fixed:
///   max_{x_a in D(k)} sum_c [ L[a][c] x + sum_{pairs (a,b)} w min(x, x_b^c) ]
/// Writes the block into x (row-major full solution). Returns the new block
/// objective contribution. Exposed for testing.
double ExactBlockMaximize(const PairwiseConcaveProblem& problem, int agent,
                          const std::vector<std::vector<int>>& pairs_of_agent,
                          std::vector<double>* x);

}  // namespace savg
