#include "lp/subgradient.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "lp/capped_simplex.h"

namespace savg {

double PairwiseConcaveProblem::Evaluate(const std::vector<double>& x) const {
  double acc = 0.0;
  const size_t total = static_cast<size_t>(num_agents) * num_items;
  for (size_t i = 0; i < total; ++i) acc += linear[i] * x[i];
  for (const ConcavePair& pr : pairs) {
    const size_t base_a = static_cast<size_t>(pr.a) * num_items;
    const size_t base_b = static_cast<size_t>(pr.b) * num_items;
    for (const auto& [c, w] : pr.weights) {
      acc += w * std::min(x[base_a + c], x[base_b + c]);
    }
  }
  return acc;
}

namespace {

/// See ExactBlockMaximize: slack added above a partner's level so paired
/// agents can ratchet up to a common kink over repeated sweeps.
constexpr double kBreakpointRatchet = 0.02;

/// Subgradient step length: kStepScale * radius / (|g| * sqrt(iter + 1)).
constexpr double kStepScale = 0.5;

/// How far a warm-start block may stray from D(k), per coordinate bound and
/// in total mass, and still be taken as given. The projection itself is
/// accurate to 1e-10 in mass, and re-projecting a point it produced moves
/// it (bisection plus mass correction), which could lose objective.
constexpr double kFeasibleTolerance = 1e-9;

bool InCappedSimplex(const double* v, size_t m, double k) {
  double mass = 0.0;
  for (size_t j = 0; j < m; ++j) {
    if (v[j] < -kFeasibleTolerance || v[j] > 1.0 + kFeasibleTolerance) {
      return false;
    }
    mass += v[j];
  }
  return std::abs(mass - k) <= kFeasibleTolerance;
}

std::vector<std::vector<int>> BuildPairsOfAgent(
    const PairwiseConcaveProblem& problem) {
  std::vector<std::vector<int>> pairs_of_agent(problem.num_agents);
  for (size_t i = 0; i < problem.pairs.size(); ++i) {
    pairs_of_agent[problem.pairs[i].a].push_back(static_cast<int>(i));
    pairs_of_agent[problem.pairs[i].b].push_back(static_cast<int>(i));
  }
  return pairs_of_agent;
}

}  // namespace

double ExactBlockMaximize(const PairwiseConcaveProblem& problem, int agent,
                          const std::vector<std::vector<int>>& pairs_of_agent,
                          std::vector<double>* x) {
  const int m = problem.num_items;
  const size_t base = static_cast<size_t>(agent) * m;

  // Gather breakpoints (item, level b, weight w): the marginal of item c
  // drops by w once x exceeds b = neighbor's mass on c.
  struct Breakpoint {
    int item;
    double level;
    double weight;
  };
  std::vector<Breakpoint> bps;
  for (int pi : pairs_of_agent[agent]) {
    const ConcavePair& pr = problem.pairs[pi];
    const int other = pr.a == agent ? pr.b : pr.a;
    const size_t obase = static_cast<size_t>(other) * m;
    for (const auto& [c, w] : pr.weights) {
      // The marginal truly drops at the partner's level, but a small upward
      // ratchet lets pairs climb to a shared kink (e.g. both to 1.0) across
      // alternating block sweeps instead of stalling epsilon short of it.
      const double b =
          std::clamp((*x)[obase + c] + kBreakpointRatchet, 0.0, 1.0);
      bps.push_back({c, b, w});
    }
  }
  std::sort(bps.begin(), bps.end(),
            [](const Breakpoint& l, const Breakpoint& r) {
              return l.item != r.item ? l.item < r.item : l.level < r.level;
            });

  // Per-item view into the sorted breakpoint array.
  std::vector<std::pair<int, int>> item_range(m, {0, 0});  // [begin, end)
  {
    size_t i = 0;
    while (i < bps.size()) {
      size_t j = i;
      while (j < bps.size() && bps[j].item == bps[i].item) ++j;
      item_range[bps[i].item] = {static_cast<int>(i), static_cast<int>(j)};
      i = j;
    }
  }

  // Greedy water-filling: allocate total mass k to the segments with the
  // highest marginal derivative. Exact for separable concave objectives.
  struct Segment {
    double marginal;
    int item;
    double level;  // current fill of the item
    int next_bp;   // index into bps of the next breakpoint at/above level
  };
  auto cmp = [](const Segment& a, const Segment& b) {
    return a.marginal < b.marginal;
  };
  std::priority_queue<Segment, std::vector<Segment>, decltype(cmp)> pq(cmp);

  auto marginal_at = [&](int item, double level, int* next_bp) {
    const auto [begin, end] = item_range[item];
    double marg = problem.L(agent, item);
    int nb = end;
    // Weights with breakpoint level > current level still contribute.
    for (int i = begin; i < end; ++i) {
      if (bps[i].level > level + 1e-15) {
        marg += bps[i].weight;
        nb = std::min(nb, i);
      }
    }
    *next_bp = nb;
    return marg;
  };

  for (int c = 0; c < m; ++c) {
    (*x)[base + c] = 0.0;
    int nb = 0;
    const double marg = marginal_at(c, 0.0, &nb);
    pq.push({marg, c, 0.0, nb});
  }
  double remaining = std::min(problem.k, static_cast<double>(m));
  while (remaining > 1e-12 && !pq.empty()) {
    Segment seg = pq.top();
    pq.pop();
    const auto [begin, end] = item_range[seg.item];
    (void)begin;
    // Segment extends to the next breakpoint strictly above `level` or 1.
    double seg_end = 1.0;
    if (seg.next_bp < end && bps[seg.next_bp].level < 1.0) {
      seg_end = std::max(bps[seg.next_bp].level, seg.level);
    }
    if (seg_end <= seg.level + 1e-15) {
      // Degenerate segment: the item is effectively at its cap.
      continue;
    }
    const double take = std::min(seg_end - seg.level, remaining);
    (*x)[base + seg.item] = seg.level + take;
    remaining -= take;
    if (take >= seg_end - seg.level - 1e-15 && seg_end < 1.0 - 1e-15) {
      // Crossed into the next segment of this item; re-queue it.
      int nb = 0;
      const double marg = marginal_at(seg.item, seg_end, &nb);
      pq.push({marg, seg.item, seg_end, nb});
    }
  }

  // Block objective contribution (for convergence checks).
  double contrib = 0.0;
  for (int c = 0; c < m; ++c) {
    contrib += problem.L(agent, c) * (*x)[base + c];
  }
  for (int pi : pairs_of_agent[agent]) {
    const ConcavePair& pr = problem.pairs[pi];
    const int other = pr.a == agent ? pr.b : pr.a;
    const size_t obase = static_cast<size_t>(other) * m;
    for (const auto& [c, w] : pr.weights) {
      contrib += w * std::min((*x)[base + c], (*x)[obase + c]);
    }
  }
  return contrib;
}

Result<SubgradientSolution> MaximizePairwiseConcave(
    const PairwiseConcaveProblem& problem, const SubgradientOptions& options) {
  const int n = problem.num_agents;
  const int m = problem.num_items;
  if (n <= 0 || m <= 0) {
    return Status::InvalidArgument("empty problem");
  }
  if (problem.k > m) {
    return Status::InvalidArgument("mass k exceeds number of items");
  }
  if (static_cast<int>(problem.linear.size()) != n * m) {
    return Status::InvalidArgument("linear term has wrong size");
  }
  const size_t total = static_cast<size_t>(n) * m;
  const auto pairs_of_agent = BuildPairsOfAgent(problem);

  // Warm start: the better of (a) the uniform point k/m and (b) a greedy
  // point where each agent takes the top-k of its linear term plus half of
  // its incident pair weights (a proxy for achievable joint mass).
  std::vector<double> x(total, problem.k / m);
  double start_f = problem.Evaluate(x);
  {
    std::vector<double> greedy(total, 0.0);
    std::vector<double> score(m);
    for (int a = 0; a < n; ++a) {
      for (int c = 0; c < m; ++c) score[c] = problem.L(a, c);
      for (int pi : pairs_of_agent[a]) {
        for (const auto& [c, w] : problem.pairs[pi].weights) {
          score[c] += 0.5 * w;
        }
      }
      const auto block = CappedSimplexLmo(score, problem.k);
      std::copy(block.begin(), block.end(),
                greedy.begin() + static_cast<size_t>(a) * m);
    }
    const double greedy_f = problem.Evaluate(greedy);
    if (greedy_f > start_f) {
      x = std::move(greedy);
      start_f = greedy_f;
    }
  }
  if (options.initial_x != nullptr && options.initial_x->size() == total) {
    // Blocks already in D(k) are evaluated as given, so a re-solve from a
    // previous answer never returns less than that answer.
    std::vector<double> warm = *options.initial_x;
    for (int a = 0; a < n; ++a) {
      double* block = warm.data() + static_cast<size_t>(a) * m;
      if (!InCappedSimplex(block, m, problem.k)) {
        ProjectCappedSimplex(block, m, problem.k);
      }
    }
    const double warm_f = problem.Evaluate(warm);
    if (warm_f > start_f) {
      x = std::move(warm);
      start_f = warm_f;
    }
  }
  std::vector<double> best_x = x;
  double best_f = start_f;
  std::vector<double> g(total);
  const double radius = std::sqrt(static_cast<double>(n) * problem.k);

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // Supergradient.
    std::copy(problem.linear.begin(), problem.linear.end(), g.begin());
    for (const ConcavePair& pr : problem.pairs) {
      const size_t ba = static_cast<size_t>(pr.a) * m;
      const size_t bb = static_cast<size_t>(pr.b) * m;
      for (const auto& [c, w] : pr.weights) {
        const double xa = x[ba + c], xb = x[bb + c];
        if (xa < xb - 1e-12) {
          g[ba + c] += w;
        } else if (xb < xa - 1e-12) {
          g[bb + c] += w;
        } else {
          g[ba + c] += 0.5 * w;
          g[bb + c] += 0.5 * w;
        }
      }
    }
    double gnorm = 0.0;
    for (double v : g) gnorm += v * v;
    gnorm = std::sqrt(gnorm);
    if (gnorm < 1e-14) break;
    const double step = kStepScale * radius /
                        (gnorm * std::sqrt(static_cast<double>(iter) + 1.0));
    for (size_t i = 0; i < total; ++i) x[i] += step * g[i];
    // Project every agent block onto D(k).
    for (int a = 0; a < n; ++a) {
      ProjectCappedSimplex(x.data() + static_cast<size_t>(a) * m, m,
                           problem.k);
    }
    const double f = problem.Evaluate(x);
    if (f > best_f) {
      best_f = f;
      best_x = x;
    }
  }

  // Exact block-coordinate polish from the best point found.
  x = best_x;
  for (int sweep = 0; sweep < options.polish_sweeps; ++sweep) {
    for (int a = 0; a < n; ++a) {
      ExactBlockMaximize(problem, a, pairs_of_agent, &x);
    }
    const double f = problem.Evaluate(x);
    if (f > best_f + 1e-12) {
      best_f = f;
      best_x = x;
    } else {
      break;
    }
  }

  SubgradientSolution sol;
  sol.x = std::move(best_x);
  sol.objective = best_f;
  return sol;
}

}  // namespace savg
