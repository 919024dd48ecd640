// LP-based branch & bound for mixed-integer programs.
//
// This is the in-repo replacement for the Gurobi MIP solver the paper uses
// as the exact "IP" baseline (Section 6.1) and for the solver-configuration
// study in Figure 9(a). Different node-selection strategies under node/time
// limits stand in for Gurobi's IP-Primal / IP-Dual / IP-Concurrent /
// IP-Barrier configurations: what Figure 9(a) measures is "exact solver
// quality under a time budget", which these strategies reproduce.
//
// Branching is on the most fractional integer variable; bounds-only
// branching keeps every node a bound-tightened copy of the root LP.

#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "lp/lp_model.h"
#include "lp/simplex.h"
#include "util/status.h"

namespace savg {

enum class NodeSelection {
  kBestBound,   ///< explore the node with the best LP bound first
  kDepthFirst,  ///< LIFO dive (finds incumbents early, weaker bound)
  kHybrid,      ///< depth-first until the first incumbent, then best-bound
};

/// A primal heuristic: given a fractional LP point, optionally produce a
/// feasible integral point (used to tighten the incumbent early). The
/// returned vector must be feasible for the model with integral values on
/// all integer variables; the solver re-checks feasibility.
using MipHeuristic = std::function<std::optional<std::vector<double>>(
    const std::vector<double>&)>;

struct MipOptions {
  SimplexOptions lp_options;
  int64_t max_nodes = 1000000;
  double time_limit_seconds = 1e18;
  NodeSelection node_selection = NodeSelection::kHybrid;
  /// Warm-start each node's LP from the parent's optimal basis. The child
  /// differs only in one variable bound, which keeps the parent basis
  /// dual-feasible, so SolveLp repairs it with the dual simplex in a
  /// handful of pivots instead of composite phase 1 (LpStats::dual_pivots
  /// in `lp_stats` counts them). Disable to force cold starts.
  bool warm_start_nodes = true;
  /// Optional warm start for the ROOT LP (not owned, must outlive the
  /// solve): typically MipSolution::root_basis of a previous SolveMip on a
  /// model with the same variable/row counts, or a matching LpSolution
  /// basis. Honored even with warm_start_nodes = false; incompatible or
  /// singular bases silently cold-start.
  const LpBasis* root_warm_start = nullptr;
  MipHeuristic heuristic;  ///< optional primal heuristic
};

struct MipSolution {
  std::vector<double> x;
  double objective = 0.0;
  double best_bound = 0.0;
  int64_t nodes_explored = 0;
  /// Total simplex pivots across every node LP (warm-start effectiveness
  /// counter, compare warm_start_nodes on/off).
  int64_t simplex_iterations = 0;
  /// Per-phase time and pivot-mix counters summed over every node LP
  /// (dual_pivots / candidate_hits feed the --json= perf artifacts).
  LpStats lp_stats;
  /// Pivots spent on the root LP alone (root warm-start effectiveness).
  int root_simplex_iterations = 0;
  /// True when the root LP reused MipOptions::root_warm_start.
  bool root_warm_started = false;
  /// Optimal basis of the root LP relaxation; feed it into the next
  /// SolveMip on the same model shape via MipOptions::root_warm_start.
  LpBasis root_basis;
  bool proven_optimal = false;
  double solve_seconds = 0.0;
};

/// Maximizes (or minimizes) `model` with the variables in `integer_vars`
/// restricted to integers. Returns the incumbent even when limits are hit
/// (`proven_optimal = false`); returns kResourceExhausted only if no
/// incumbent was found before the limits, and kInfeasible if the root LP
/// (or the integrality requirement) is infeasible.
Result<MipSolution> SolveMip(const LpModel& model,
                             const std::vector<int>& integer_vars,
                             const MipOptions& options = {});

}  // namespace savg
