// LP / IP formulations of SVGIC and SVGIC-ST (Sections 3.3 and 4.4), and
// the relaxation front-end used by AVG.
//
// Three formulations are provided:
//
//  * Compact LP (LP_SIMP, Section 4.4): variables x_u^c and y_e^c, with
//    sum_c x_u^c = k per user. O((n + |E|) m) variables. The advanced LP
//    transformation; exact for the relaxation by Observation 2. It is built
//    with one row per co-display entry instead of the two caps y <= x_u,
//    y <= x_v: for a pair u < v (FriendPair order) and an entry (c, tau),
//    y = x_v - s with s in [0, 1], tau moves onto x_v's cost, s costs -tau
//    and the row is x_v - x_u - s <= 0. Every stored tau is > 0, so at the
//    optimum s = max(0, x_v - x_u) and y = min(x_u, x_v). The orientation
//    is fixed by user id, never by preference, so value-only edits keep
//    every column and row key of the LP (see CompactLpKeys).
//  * Expanded LP (LP_SVGIC, Section 3.3): slot-indexed x_{u,s}^c, y_{e,s}^c.
//    O((n + |E|) m k) variables. Used by the exact IP baseline (integrality
//    is slot-sensitive: alignment matters for co-display) and by the "-ALP"
//    ablation of Figure 9(b).
//  * ST LP: expanded plus z_e^c indirect-co-display variables, the
//    (1 - d_tel) y + d_tel z objective split, and subgroup size rows
//    sum_u x_{u,s}^c <= M.
//
// All formulations use the scaled preference p'(u,c) = (1-lambda)/lambda
// p(u,c), so their objective is the paper's scaled total
// (ObjectiveBreakdown::ScaledTotal()).
//
// SolveRelaxation() picks the exact simplex for small models and the
// projected-subgradient solver for large ones (Corollary 4.2 justifies the
// approximate path).

#pragma once

#include <vector>

#include "core/fractional_solution.h"
#include "core/problem.h"
#include "lp/lp_model.h"
#include "lp/simplex.h"
#include "lp/subgradient.h"
#include "util/status.h"

namespace savg {

/// Variable layout of the compact LP.
struct CompactLpMap {
  /// x_u^c variable index, -1 if the item is useless for u (zero preference
  /// and no incident social weight) and was folded into the filler.
  std::vector<int> x;  // n x m
  /// Filler variable per user aggregating all useless items (or -1).
  std::vector<int> filler;
  /// s variable per (pair index, weight entry index), parallel to
  /// instance.pairs()[p].weights: the co-display y = min(x_u, x_v) of the
  /// entry is x_v - s (v the pair's larger user id).
  std::vector<std::vector<int>> s;

  int XVar(UserId u, ItemId c, int num_items) const {
    return x[static_cast<size_t>(u) * num_items + c];
  }
};

/// Variable layout of the expanded (slot-indexed) LP/IP.
struct ExpandedLpMap {
  int num_items = 0;
  int num_slots = 0;
  /// x_{u,s}^c, dense (n x k x m).
  std::vector<int> x;
  /// y_{e,s}^c per (pair, weight entry, slot).
  std::vector<std::vector<std::vector<int>>> y;
  /// z_e^c per (pair, weight entry); empty unless the ST variant.
  std::vector<std::vector<int>> z;

  int XVar(UserId u, SlotId s, ItemId c) const {
    return x[(static_cast<size_t>(u) * num_slots + s) * num_items + c];
  }
};

/// Builds LP_SIMP. Requires lambda > 0 (lambda = 0 is the trivial top-k
/// special case handled upstream).
Result<LpModel> BuildCompactLp(const SvgicInstance& instance,
                               CompactLpMap* map);

/// The compact fractional solution of `sol`, a solve of the model
/// BuildCompactLp built with `map`: x (0 on folded items), objective and
/// simplex counters. The basis stays in `sol`; supporters are not built.
FractionalSolution CompactFractionalSolution(const SvgicInstance& instance,
                                             const CompactLpMap& map,
                                             const LpSolution& sol);

/// Stable 64-bit identity per column and row of a compact LP, independent
/// of the index shifts instance mutations cause (columns appear/disappear
/// when an item becomes useful/useless for a user, rows when pairs gain or
/// lose weight entries). Two keys are equal iff they denote the same
/// logical entity — x_u^c, u's filler, the s column of (u, v, c), u's mass
/// row, or the one row of (u, v, c) — so the online serving layer can
/// match the entities of the pre-mutation LP to the post-mutation LP and
/// project a cached simplex basis across the change
/// (online/basis_projection.h). Entries are oriented by user id (tau on
/// x_v), never by value, so after a preference, tau or lambda edit every
/// key still names the same column or row with the same coefficients.
struct CompactLpKeys {
  std::vector<uint64_t> cols;  ///< indexed by LP variable
  std::vector<uint64_t> rows;  ///< indexed by LP row
};

/// Builds the keys for (instance, map, lp) as returned by BuildCompactLp.
/// Requires num_users < 2^21 and num_items < 2^20 (the packing limits;
/// far above the simplex-tractable sizes).
CompactLpKeys BuildCompactLpKeys(const SvgicInstance& instance,
                                 const CompactLpMap& map, const LpModel& lp);

/// The compact LP of a mutating instance, kept in the simplex's column
/// form across re-solves (an online session's LP engine). Refresh() lays
/// out the instance's LP (map and keys). When the keys and k equal the
/// loaded ones, the matrix and the rhs are unchanged, so it rewrites only
/// the objective and the filler upper bounds in place; otherwise it builds
/// the LP and loads it again. Either way the engine then holds the column
/// form of BuildCompactLp(instance) exactly, so simplex().Solve() answers
/// what SolveLp() answers on that model, bit for bit, and its
/// factorization memo (SimplexEngine) survives value-only refreshes.
class CompactLpEngine {
 public:
  /// Brings the loaded LP up to `instance`; fails where BuildCompactLp
  /// fails. Returns true when the LP was rebuilt, false when only its
  /// values were rewritten.
  Result<bool> Refresh(const SvgicInstance& instance);

  /// Layout and keys of the loaded LP (empty before the first Refresh).
  const CompactLpMap& map() const { return map_; }
  const CompactLpKeys& keys() const { return keys_; }
  SimplexEngine& simplex() { return simplex_; }

 private:
  SimplexEngine simplex_;
  CompactLpMap map_;
  CompactLpKeys keys_;
  int num_slots_ = 0;
  /// Value buffers of the in-place refresh.
  std::vector<double> objective_, upper_;
};

/// Builds LP_SVGIC (slot-indexed). With `for_integer_program` the x bounds
/// stay [0,1] (integrality is requested at the MIP call site).
Result<LpModel> BuildExpandedLp(const SvgicInstance& instance,
                                ExpandedLpMap* map);

/// Builds the SVGIC-ST formulation: expanded + z variables with the
/// (1-d_tel) y + d_tel z objective and size rows sum_u x_{u,s}^c <= M.
Result<LpModel> BuildStLp(const SvgicInstance& instance, double d_tel,
                          int size_cap, ExpandedLpMap* map);

/// Builds the reduced concave problem consumed by the subgradient solver.
PairwiseConcaveProblem BuildConcaveProblem(const SvgicInstance& instance);

enum class RelaxationMethod {
  kAuto,        ///< simplex when small enough, else subgradient
  kSimplex,     ///< exact, compact formulation
  kSimplexExpanded,  ///< exact, slot-expanded formulation (-ALP ablation)
  kSubgradient,  ///< approximate, any size
};

struct RelaxationOptions {
  RelaxationMethod method = RelaxationMethod::kAuto;
  SimplexOptions simplex;
  SubgradientOptions subgradient;
  /// kAuto switches to the subgradient solver above this many rows of the
  /// CompactLpRowCount measure (n + 2 * entries; the built LP has half the
  /// entry rows). Cold exact solves of the one-row-per-entry LP (Release,
  /// one core of a 4-vCPU Xeon guest, one run each; rows are the measure):
  /// Timik m=40, k=3, seeds 1-3, takes 0.01s at 1.5k rows, 0.04-0.06s at
  /// 3.5-4.3k rows and 0.08-0.14s at 5.0-5.1k rows. Yelp pivots far more
  /// per row: 2.8k rows (20x200x5, seed 2) take 0.06s, but at k=10 3.6k
  /// rows take 0.33s (20x200x10) or 3.0s (30x3000x10), 4.2k rows
  /// (40x3000x10) 1.6s, 4.8k rows (30x2000x10) 3.8s and 6.3k rows
  /// (40x2000x10) 3.1s, all seed 1. Row count alone does not predict the
  /// cost: Yelp shapes pass a second below 4000 rows already, and a higher
  /// limit only admits shapes that take seconds where the subgradient path
  /// takes 0.06s (Yelp 40x2000x10), so 4000 stays. The subgradient path
  /// (1-4% below the exact optimum on the Timik sweep) is covered by
  /// Corollary 4.2 (beta-approximate LP -> 4*beta-approximate rounding).
  int auto_simplex_row_limit = 4000;
  /// Supporter pruning threshold.
  double prune_tolerance = 1e-9;
};

/// options.method, with kAuto resolved: the exact simplex while
/// CompactLpRowCount is at most auto_simplex_row_limit, the subgradient
/// solver above.
RelaxationMethod ChooseRelaxationMethod(const SvgicInstance& instance,
                                        const RelaxationOptions& options);

/// Solves the SVGIC relaxation and returns the compact fractional solution
/// with supporter lists built.
///
/// `warm_start` (optional) seeds the simplex from the final basis of a
/// related solve of the same formulation — e.g. the same instance at the
/// previous lambda of a sweep, whose constraint matrix is identical. Both
/// the compact and the expanded simplex paths honor it; the subgradient
/// path and shape-incompatible bases ignore it.
Result<FractionalSolution> SolveRelaxation(
    const SvgicInstance& instance, const RelaxationOptions& options = {},
    const LpBasis* warm_start = nullptr);

/// The kAuto size measure: n + 2 * (co-display entries), the row count of
/// the two-cap form the auto_simplex_row_limit was calibrated on.
/// BuildCompactLp builds n + (entries) rows; the measure keeps its old
/// value so the same instances take the exact path as before.
int CompactLpRowCount(const SvgicInstance& instance);

}  // namespace savg
