// Sharded solve: community-partitioned compact LPs with Lagrangian dual
// coordination of the cross-shard friendship terms.
//
// The monolithic paths formulate one compact LP over all users, capping
// instance size by single-LP memory and pivot cost. This subsystem scales
// past that limit by decomposing along the social graph's community
// structure (shard/shard_plan.h):
//
//   1. each shard solves the compact relaxation of its induced
//      sub-instance in parallel on util/thread_pool, warm-started from the
//      previous round's basis (simplex shards) or fractional point
//      (subgradient shards);
//   2. a cut pair (u, v) with weight w contributes w * min(x_u^c, x_v^c)
//      to the true objective, which no single shard sees. Each cut weight
//      entry carries a dual share theta in [0, 1]: shard(u) receives the
//      linear bonus theta * w on x_u^c and shard(v) receives
//      (1 - theta) * w on x_v^c. Since min(a, b) <= theta a + (1-theta) b,
//      the sum of shard optima D(theta) upper-bounds the monolithic LP
//      optimum for every theta — it is the Lagrangian dual of the compact
//      LP's y <= x_u, y <= x_v rows. The coordinator descends D with the
//      projected-subgradient step theta -= step * (x_u^c - x_v^c), exactly
//      the machinery of lp/subgradient.cc applied to the duals, until the
//      relative gap between D and the stitched primal value P drops below
//      the tolerance;
//   3. shard solutions are stitched into one fractional solution (each
//      user's row is owned by exactly one shard, so the stitch is
//      feasible) and rounded. When only some shards re-round (the online
//      serving case) the rounding is phased: per-shard CSF in parallel,
//      then one global CSF re-round of the boundary halo so cross-shard
//      co-display is recovered where the duals made x agree. The halo is
//      the boundary users plus their direct weighted intra-shard
//      partners: per-shard roundings pick group slots independently, so a
//      boundary user's interior partners must be re-roundable for the
//      global pass to align cross- and intra-shard groups on common slots,
//      and the halo stays small exactly when the partition is good (its
//      size tracks the cut). When every shard re-rounds anyway (batch
//      solves, periodic full re-rounds), one global CSF pass over the
//      stitched relaxation is used instead: it aligns group slots across
//      shards like monolithic AVG, and decision dilution keeps it cheap at
//      any n x m reached so far.
//
// The coordinator keeps all per-shard state (sub-instances, bases, warm
// points, duals) across calls, which is what the online serving layer
// exploits: after a mutation only the dirty shards re-solve; clean shards
// keep their cached solutions and cached dual objective terms. Dual
// updates are restricted to cut entries between two dirty shards — a
// mixed entry's clean endpoint keeps its x fixed, so moving its theta
// could not improve the bound without re-solving the clean shard.
//
// Determinism: shard tasks write to pre-indexed slots and derive their
// rounding seeds from shard indices, so results are bit-identical for any
// worker count (the thread-pool discipline of experiments/batch_runner).
//
// Requires lambda in (0, 1): the dual bonus enters a shard LP through the
// scaled preference p' = (1-lambda)/lambda p, which vanishes at lambda = 1
// (callers fall back to the monolithic path there; lambda <= 0 is the
// trivial top-k case handled upstream).

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/avg.h"
#include "core/configuration.h"
#include "core/fractional_solution.h"
#include "core/lp_formulation.h"
#include "core/problem.h"
#include "shard/shard_plan.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace savg {

struct ShardSolveOptions {
  ShardPlanOptions plan;
  /// Per-shard relaxation knobs; kAuto picks simplex vs subgradient per
  /// shard by the shard LP's row count, exactly like the monolithic path.
  RelaxationOptions relaxation;
  /// CSF rounding knobs (per-shard and boundary re-round).
  AvgOptions rounding;
  /// Best-of-k rounding repeats for the batch entry point (Corollary 4.1,
  /// matching AVG's avg_repeats). Online serving keeps 1 for latency.
  int rounding_repeats = 3;
  /// Maximum dual coordination rounds per solve.
  int max_dual_rounds = 12;
  /// Stop once (D - P) / max(|D|, 1) drops below this. With exact
  /// (simplex) shard solves this bounds the stitched solution's LP
  /// suboptimality; with subgradient shards it is the same heuristic
  /// certificate the monolithic approximate path provides.
  double gap_tolerance = 0.01;
  /// Worker threads for the per-shard fan-out (<= 0 = all cores).
  int num_workers = 0;
  uint64_t seed = 1;
};

/// Telemetry of one coordinated solve.
struct ShardSolveStats {
  int num_shards = 0;
  int dirty_shards = 0;
  int dual_rounds = 0;
  /// Sum of shard LP optima at the final duals (upper bound on the
  /// monolithic compact-LP optimum when every shard solved exactly).
  double dual_bound = 0.0;
  /// True (scaled) objective of the stitched fractional solution.
  double primal_objective = 0.0;
  /// (dual_bound - primal_objective) / max(|dual_bound|, 1), floored at 0.
  double gap = 0.0;
  /// Clean shards promoted into the re-solve by adaptive widening: when
  /// the gap is still above tolerance at half the round budget, shards on
  /// the clean side of a cut pair are pulled in so their duals can move
  /// (their warm bases make the extra re-solves cheap).
  int widened_shards = 0;
  /// Simplex pivots across all shard re-solves of this call.
  int64_t lp_pivots = 0;
  /// Per-shard solve detail of this call, in shard index order (only
  /// shards that re-solved appear). `pivots`/`solves` accumulate across
  /// the dual rounds. Deterministic for a fixed command stream — the
  /// trace layer (src/obs/) bridges per-shard spans from it after the
  /// parallel region, never from worker threads.
  struct ShardDetail {
    int shard = 0;
    int solves = 0;
    int64_t pivots = 0;
  };
  std::vector<ShardDetail> shard_details;
  /// Accepted CSF applications across per-shard and boundary rounding.
  int64_t csf_iterations = 0;
  int cut_pairs = 0;
  double cut_weight_fraction = 0.0;
  double lp_seconds = 0.0;
  double rounding_seconds = 0.0;
};

/// Persistent coordination state over one (mutable) parent instance. The
/// instance must outlive the coordinator; after parent mutations call
/// Refresh() with the touched users before the next SolveFractional().
class ShardCoordinator {
 public:
  /// `instance` is borrowed, not owned.
  ShardCoordinator(const SvgicInstance* instance, ShardSolveOptions options);
  ~ShardCoordinator();

  ShardCoordinator(const ShardCoordinator&) = delete;
  ShardCoordinator& operator=(const ShardCoordinator&) = delete;

  /// Builds the plan and extracts every sub-instance; marks all shards
  /// dirty. Fails for lambda outside (0, 1) or an unfinalized instance.
  Status Build();

  const ShardPlan& plan() const { return plan_; }
  int num_shards() const { return plan_.num_shards(); }
  /// Stitched fractional solution of the last SolveFractional().
  const FractionalSolution& frac() const { return frac_; }

  /// Re-syncs with the mutated parent: absorbs new users into the plan,
  /// refreshes the cut-pair set (preserving duals keyed by pair index),
  /// marks the shards of `dirty_users` dirty and re-extracts their
  /// sub-instances. A changed item count dirties every shard.
  Status Refresh(const std::vector<UserId>& dirty_users);

  void MarkAllDirty();

  /// Runs the dual-coordinated parallel solve of the dirty shards (see
  /// file comment) and clears the dirty flags. Clean shards keep their
  /// cached solutions and contribute their cached objective to the bound.
  /// Accumulates telemetry into `*stats`.
  Status SolveFractional(ThreadPool* pool, ShardSolveStats* stats);

  /// Rounds the stitched fractional solution into a complete
  /// configuration: parallel per-shard CSF for the shards in `reround`
  /// (clean shards keep their users' units from `previous`), then one
  /// global CSF re-round of the re-rounded shards' boundary users. With
  /// `previous == nullptr` every shard re-rounds. `rounding_seed` must be
  /// caller-derived (sessions use their own rng) so replays reproduce.
  Result<Configuration> Round(const Configuration* previous,
                              const std::vector<int>& reround,
                              uint64_t rounding_seed, ThreadPool* pool,
                              ShardSolveStats* stats, int* rerounded_units);

  /// Shards re-solved by the last SolveFractional() (the dirty set plus
  /// any adaptively widened shards) — the set whose x rows changed, which
  /// is what the caller should re-round.
  const std::vector<int>& LastResolvedShards() const {
    return last_resolved_shards_;
  }

 private:
  struct Shard;

  Status ExtractShard(int shard);
  void ApplyDualBonus(int shard);
  void StitchShard(int shard);
  void EnsureFracShape();
  Result<FractionalSolution> SolveShardRelaxation(int shard, bool warm);

  const SvgicInstance* instance_;
  ShardSolveOptions options_;
  ShardPlan plan_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Dual shares per cut pair index, parallel to pairs()[pi].weights.
  std::vector<std::vector<double>> theta_;
  FractionalSolution frac_;
  std::vector<int> last_resolved_shards_;
  int last_num_items_ = -1;
  double last_lambda_ = -1.0;
  bool built_ = false;
};

/// One-shot batch entry point: plan, coordinate, round. This is what the
/// AVG-SHARD solver calls.
struct ShardSolveResult {
  Configuration config;
  FractionalSolution frac;
  ShardSolveStats stats;
};

Result<ShardSolveResult> SolveSharded(const SvgicInstance& instance,
                                      const ShardSolveOptions& options);

}  // namespace savg
