// Aggregated tuning knobs for every built-in solver.
//
// One struct bundles the per-algorithm option structs so a caller can
// configure a whole comparison run in one place and hand it to any solver
// via SolverContext::options. Field defaults match the paper's default
// experiment setup.

#pragma once

#include "baselines/brute_force.h"
#include "baselines/fmg.h"
#include "baselines/grf.h"
#include "baselines/ip_exact.h"
#include "baselines/sdp.h"
#include "core/avg.h"
#include "core/avg_d.h"
#include "core/avg_st.h"
#include "core/local_search.h"
#include "core/lp_formulation.h"
#include "shard/shard_solve.h"

namespace savg {

struct SolverOptions {
  RelaxationOptions relaxation;
  AvgOptions avg;
  /// Corollary 4.1 repeats for AVG / AVG+LS (best-of-k rounding).
  int avg_repeats = 3;
  AvgDOptions avg_d;
  /// AVG-ST knobs. With use_st_lp = false the top-level `relaxation`
  /// above governs the compact proxy LP; st.relaxation only configures
  /// the exact slot-indexed ST LP.
  StOptions st;
  LocalSearchOptions local_search;
  FmgOptions fmg;
  SdpOptions sdp;
  GrfOptions grf;
  IpExactOptions ip;
  BruteForceOptions brute_force;
  IndependentRoundingOptions independent_rounding;
  /// AVG-SHARD knobs (shard/shard_solve.h). AVG-SHARD overrides
  /// shard.relaxation with the top-level `relaxation` and shard.rounding
  /// with `avg`, so AVG and AVG-SHARD comparisons solve and round alike;
  /// only the plan / dual-coordination knobs here are shard-specific.
  ShardSolveOptions shard;
};

}  // namespace savg
