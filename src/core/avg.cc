#include "core/avg.h"

#include <algorithm>

#include "core/objective.h"
#include "util/logging.h"

namespace savg {

namespace {

/// Candidate index for (active item ai, slot s).
inline int CandidateIndex(int ai, SlotId s, int k) { return ai * k + s; }

/// Independent rounding: draws per slot before greedy completion takes it.
constexpr int kMaxDrawAttempts = 64;

}  // namespace

Result<AvgResult> RunCsfSampling(CsfState* state_ptr,
                                 const AvgOptions& options) {
  CsfState& state = *state_ptr;
  const FractionalSolution& frac = state.frac();
  if (!frac.HasSupporters()) {
    return Status::InvalidArgument(
        "fractional solution lacks supporter lists");
  }
  Timer timer;
  Rng rng(options.seed);
  const int k = state.instance().num_slots();
  const auto& active = frac.active_items();
  const int num_candidates = static_cast<int>(active.size()) * k;

  AvgResult result;
  if (num_candidates > 0) {
    // Stale-weight candidate tree: weights start at each item's top
    // supporter factor (identical across slots for the compact solution).
    SampleTree tree(num_candidates);
    for (size_t ai = 0; ai < active.size(); ++ai) {
      const auto& sups = frac.SupportersOf(active[ai]);
      const double top = sups.empty() ? 0.0 : sups.front().x / k;
      for (SlotId s = 0; s < k; ++s) {
        tree.Set(CandidateIndex(static_cast<int>(ai), s, k), top);
      }
    }

    int64_t iterations = 0;
    while (!state.Complete() && iterations < options.max_iterations) {
      ++iterations;
      if (options.advanced_sampling) {
        if (tree.total() <= 1e-15) break;  // dust left; completion pass
        const int cand = tree.Sample(&rng);
        if (cand < 0) break;
        const int ai = cand / k;
        const SlotId s = cand % k;
        const ItemId c = active[ai];
        const double stale = tree.Get(cand);
        const double alpha = rng.Uniform() * stale;
        const double fresh = state.FreshMaxFactor(c, s);
        if (alpha > fresh) {
          // Reject and refresh the stale weight (Observation 3: accepted
          // draws stay uniform over the good parameter set).
          tree.Set(cand, fresh);
          ++result.idle_iterations;
          continue;
        }
        const int assigned = state.ApplyCsf(c, s, alpha);
        if (assigned > 0) {
          ++result.csf_iterations;
          tree.Set(cand, state.FreshMaxFactor(c, s));
        } else {
          // Numerically possible when fresh == alpha == 0.
          tree.Set(cand, 0.0);
          ++result.idle_iterations;
        }
      } else {
        // Original sampling: uniform (c, s), alpha ~ U[0, 1].
        const int ai = static_cast<int>(
            rng.UniformInt(static_cast<uint64_t>(active.size())));
        const SlotId s =
            static_cast<SlotId>(rng.UniformInt(static_cast<uint64_t>(k)));
        const ItemId c = active[ai];
        const double alpha = rng.Uniform();
        const double fresh = state.FreshMaxFactor(c, s);
        if (alpha > fresh || fresh <= 0.0) {
          ++result.idle_iterations;
          // Termination check: if nothing is assignable anymore, stop.
          if ((result.idle_iterations & 1023) == 0) {
            bool any = false;
            for (size_t i = 0; i < active.size() && !any; ++i) {
              for (SlotId t = 0; t < k && !any; ++t) {
                any = state.FreshMaxFactor(active[i], t) > 0.0;
              }
            }
            if (!any) break;
          }
          continue;
        }
        const int assigned = state.ApplyCsf(c, s, alpha);
        if (assigned > 0) {
          ++result.csf_iterations;
        } else {
          ++result.idle_iterations;
        }
      }
    }
  }
  state.GreedyComplete();
  result.config = state.TakeConfig();
  result.rounding_seconds = timer.ElapsedSeconds();
  return result;
}

Result<AvgResult> RunAvg(const SvgicInstance& instance,
                         const FractionalSolution& frac,
                         const AvgOptions& options) {
  // Checked before CsfState's constructor, which asserts on supporters.
  if (!frac.HasSupporters()) {
    return Status::InvalidArgument(
        "fractional solution lacks supporter lists");
  }
  CsfState state(instance, frac, options.size_cap);
  return RunCsfSampling(&state, options);
}

Result<AvgResult> RunAvgBest(const SvgicInstance& instance,
                             const FractionalSolution& frac, int repeats,
                             const AvgOptions& options) {
  if (repeats < 1) return Status::InvalidArgument("repeats must be >= 1");
  Rng seeder(options.seed);
  Result<AvgResult> best = Status::Unknown("no run executed");
  double best_value = -1.0;
  double total_seconds = 0.0;
  for (int i = 0; i < repeats; ++i) {
    AvgOptions run_options = options;
    run_options.seed = seeder.Next();
    auto run = RunAvg(instance, frac, run_options);
    if (!run.ok()) return run;
    const double value = Evaluate(instance, run->config).ScaledTotal();
    total_seconds += run->rounding_seconds;
    if (value > best_value) {
      best_value = value;
      best = std::move(run);
    }
  }
  best->rounding_seconds = total_seconds;
  return best;
}

Result<IndependentRoundingResult> RunIndependentRounding(
    const SvgicInstance& instance, const FractionalSolution& frac,
    const IndependentRoundingOptions& options) {
  if (!frac.HasSupporters()) {
    return Status::InvalidArgument(
        "fractional solution lacks supporter lists");
  }
  Rng rng(options.seed);
  CsfState state(instance, frac, CsfState::kNoSizeCap);
  const int k = instance.num_slots();
  IndependentRoundingResult result;

  std::vector<double> weights;
  for (UserId u = 0; u < instance.num_users(); ++u) {
    const auto& items = frac.ItemsOfUser(u);
    weights.resize(items.size());
    for (SlotId s = 0; s < k; ++s) {
      // Draw an item with probability proportional to x*_{u,s}^c.
      for (int attempt = 0; attempt < kMaxDrawAttempts; ++attempt) {
        for (size_t i = 0; i < items.size(); ++i) {
          weights[i] = frac.XCompact(u, items[i]);
        }
        const size_t pick = rng.Discrete(weights);
        if (pick >= items.size()) break;
        const ItemId c = items[pick];
        if (state.config().Displays(u, c)) {
          ++result.duplicate_draws;
          continue;
        }
        Status st = state.AssignUnit(u, s, c);
        if (st.ok()) break;
      }
    }
  }
  state.GreedyComplete();
  result.config = state.TakeConfig();
  return result;
}

}  // namespace savg
