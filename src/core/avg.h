// AVG: Alignment-aware VR subGroup formation (Section 4.2, Algorithms 2
// and 4) — the randomized 4-approximation for SVGIC.
//
// Pipeline: solve the LP relaxation (lp_formulation.h), then repeat CSF
// with randomly sampled focal parameters (c, s, alpha) until the SAVG
// k-Configuration is complete.
//
// Two sampling schemes are provided:
//  * advanced (default; Section 4.4, Observation 3): sample (c, s)
//    proportional to the maximum eligible utility factor and alpha uniform
//    below it, so every accepted draw assigns at least one user;
//  * original (the `-AS` ablation of Figure 9(b)): sample (c, s) uniformly
//    over active items x slots and alpha uniform in [0, 1]; draws whose
//    alpha exceeds every eligible factor are idle.
//
// RunAvgBest implements Corollary 4.1 (repeat and keep the best). The size
// cap parameter turns the rounding into the SVGIC-ST variant (see avg_st.h
// for the end-to-end ST entry point).

#pragma once

#include <cstdint>

#include "core/configuration.h"
#include "core/csf.h"
#include "core/fractional_solution.h"
#include "core/problem.h"
#include "util/status.h"

namespace savg {

struct AvgOptions {
  uint64_t seed = 1;
  /// Advanced focal-parameter sampling (false = original scheme, used by
  /// the Figure 9(b) "-AS" ablation).
  bool advanced_sampling = true;
  /// Subgroup size cap M; CsfState::kNoSizeCap disables (plain SVGIC).
  int size_cap = CsfState::kNoSizeCap;
  /// Safety valve on sampling iterations (counts idle draws too).
  int64_t max_iterations = 50'000'000;
};

struct AvgResult {
  Configuration config;
  int64_t csf_iterations = 0;   ///< accepted CSF applications
  int64_t idle_iterations = 0;  ///< rejected/idle draws
  double rounding_seconds = 0.0;
};

/// One randomized rounding run over a solved relaxation.
Result<AvgResult> RunAvg(const SvgicInstance& instance,
                         const FractionalSolution& frac,
                         const AvgOptions& options = {});

/// The CSF sampling loop + greedy completion on a caller-prepared rounding
/// state; RunAvg is this over a fresh state. The online serving layer
/// (src/online/session.h) pre-assigns the units it keeps from the previous
/// configuration, so sampling only fills the dirty users' units (their
/// slots are the only eligible ones left). Consumes the state
/// (TakeConfig).
Result<AvgResult> RunCsfSampling(CsfState* state,
                                 const AvgOptions& options = {});

/// Corollary 4.1: `repeats` independent runs, keep the configuration with
/// the best scaled total.
Result<AvgResult> RunAvgBest(const SvgicInstance& instance,
                             const FractionalSolution& frac, int repeats,
                             const AvgOptions& options = {});

struct IndependentRoundingOptions {
  uint64_t seed = 1;
};

struct IndependentRoundingResult {
  Configuration config;
  int64_t duplicate_draws = 0;  ///< draws that hit the no-dup constraint
};

/// Algorithm 1, the trivial independent rounding scheme (Lemma 3 shows it
/// loses a factor m of social utility). Kept as a measurable strawman. A
/// draw of an item the user already displays is re-drawn (up to 64 times
/// per slot), so the output is a valid configuration; slots still empty
/// after that are filled by greedy completion.
Result<IndependentRoundingResult> RunIndependentRounding(
    const SvgicInstance& instance, const FractionalSolution& frac,
    const IndependentRoundingOptions& options = {});

}  // namespace savg
