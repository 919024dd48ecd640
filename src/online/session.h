// A live SVGIC serving session with incremental warm-started re-solve.
//
// The paper's scenario is inherently online: shoppers join a VR store,
// browse, befriend each other and leave while the co-display configuration
// must stay near-optimal. A Session owns a mutable SvgicInstance, the
// currently served k-configuration and the last compact-LP basis. Every
// caller drives it through one entry point, Apply(SessionCommand)
// (serve/session_command.h): mutation commands mark dirty regions, and a
// resolve command (or Resolve() directly) re-optimizes incrementally:
//
//   1. RefinalizePairs() updates only the pairs incident to dirty users,
//   2. the session's LP engine (CompactLpEngine, core/lp_formulation.h)
//      is brought up to the mutated instance: in place when the LP's keys
//      did not change, rebuilt when they did,
//   3. the cached simplex basis is projected onto the mutated LP
//      (online/basis_projection.h; under unchanged keys it is used as it
//      is) and warm-starts the re-solve — the composite phase 1 repairs
//      the perturbed region in a few pivots, and a start from the basis
//      the engine factorized last reuses that LU,
//   4. CSF rounding re-runs only for the dirty users: the previous
//      configuration's untouched units are pre-assigned, so the sampling
//      loop (core/avg.h RunCsfSampling) can only fill dirty users' slots,
//
// falling back to a cold solve when the perturbation is too large (the
// changed-column fraction exceeds SessionOptions::cold_fraction_threshold)
// or the warm solve fails. Each Resolve() reports which path ran plus the
// pivot counts, so serving telemetry can track warm-start effectiveness.
//
// A resolve that provably reproduces the previous answer skips all of the
// above and answers from the served state (see Resolve()).
//
// Sessions are not thread-safe; the SessionManager serializes per-session
// access while running many sessions concurrently.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/avg.h"
#include "core/configuration.h"
#include "core/fractional_solution.h"
#include "core/lp_formulation.h"
#include "core/problem.h"
#include "lp/simplex.h"
#include "obs/verify.h"
#include "serve/session_command.h"
#include "shard/shard_solve.h"
#include "util/random.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace savg {


struct SessionOptions {
  SimplexOptions simplex;
  /// Rounding knobs; the per-resolve seed is derived from `seed`.
  AvgOptions rounding;
  uint64_t seed = 1;
  /// Supporter pruning threshold (as in RelaxationOptions).
  double prune_tolerance = 1e-9;
  /// Cold-solve fallback: re-solve from scratch when more than this
  /// fraction of the compact LP's columns changed identity since the
  /// cached basis (projection would mostly seed a cold basis anyway).
  double cold_fraction_threshold = 0.3;
  /// Drift-triggered full re-round: before re-rounding an incremental
  /// resolve, the kept (clean) units' utility share of the fresh LP is
  /// measured as mean_{kept (u,s,c)} x_u^c over the just-solved
  /// relaxation — how much fractional mass the new optimum still puts on
  /// the items those stale units display. Stale units chasing old tau /
  /// preference values pull the share toward 0; when it drops below this
  /// threshold every unit is re-rounded on THIS resolve (the LP still
  /// warm-starts), bounding the rounding drift long mutation streams
  /// accumulate when clean users keep stale units. <= 0 disables.
  double reround_utility_threshold = 0.0;
  /// Sharded serving (shard/shard_solve.h): the instance is partitioned by
  /// community, dirty users map to dirty shards, and Resolve() re-solves
  /// only the touched shards' LPs — the scaling path for sessions past the
  /// single-LP practical limit. Requires lambda in (0, 1); the session
  /// falls back to the monolithic path at the endpoints. Only `svgic_cli`
  /// sets it: the sharded path has no single LP, so its self-verification
  /// checks the configuration and the objective but can run no KKT audit,
  /// and svgic_serverd audits the LP of every answer it verifies.
  bool use_sharding = false;
  ShardSolveOptions sharding;
  /// Sampled post-solve self-verification (obs/verify.h): when set,
  /// resolves the verifier samples (or that request force-verification via
  /// ScopedForceVerify) snapshot their instance/config/LP into a
  /// background check off the hot path. nullptr disables. It must outlive
  /// the session.
  SolutionVerifier* verifier = nullptr;
  /// Session id stamped on verify jobs/failure logs (set by the manager).
  uint32_t verifier_session_id = 0;
};

enum class ResolvePath {
  kCold,          ///< no usable cached basis (first solve / forced)
  kIncremental,   ///< warm-started from the projected cached basis
  kColdFallback,  ///< perturbation too large or warm solve failed
};

const char* ResolvePathName(ResolvePath path);

/// Telemetry of one Resolve() call.
struct ResolveReport {
  ResolvePath path = ResolvePath::kCold;
  /// True when the answer was reused from the served state without any
  /// LP work (see Session::Resolve()).
  bool reused = false;
  /// True when the simplex actually consumed the projected basis.
  bool warm_started = false;
  /// Simplex pivots of this re-solve (total / feasibility-repair only).
  int pivots = 0;
  int phase1_pivots = 0;
  /// Fraction of LP columns whose identity changed since the last solve.
  double changed_fraction = 0.0;
  /// True when the LP was built and loaded afresh: its keys changed, or
  /// the session's LP engine was empty (first resolve, FromState()).
  /// False when only its values were rewritten in place.
  bool lp_rebuilt = false;
  /// True when the cached basis was projected across changed keys.
  bool basis_projected = false;
  int num_dirty_users = 0;
  /// (user, slot) units freed for re-rounding (k per dirty user).
  int rerounded_units = 0;
  /// True when this resolve re-rounded every unit because the kept-unit
  /// utility share dropped below SessionOptions::reround_utility_threshold.
  bool full_reround = false;
  /// Mean fresh-LP fractional mass on the kept units' items (1.0 when
  /// nothing was kept / the threshold policy is off — see the option).
  double kept_utility_share = 1.0;
  double lp_objective = 0.0;
  /// Scaled total of the served configuration after rounding.
  double scaled_total = 0.0;
  double lp_seconds = 0.0;
  double rounding_seconds = 0.0;
  double total_seconds = 0.0;
  /// Product-form etas left pending when this resolve's LP finished —
  /// the eta-chain length the next warm resolve would inherit if the
  /// basis were kept hot. The simplex's adaptive refactorization rule
  /// keeps this bounded over long mutation streams. Monolithic path only
  /// (zero on the sharded path, whose per-shard solves refactorize
  /// independently).
  int64_t eta_chain_length = 0;
  /// Basis (re)factorizations this resolve's LP performed (reused LUs
  /// are counted in lp_stats.reused_factorizations).
  int64_t refactorizations = 0;
  LpStats lp_stats;
  // Sharded-mode telemetry (zero on the monolithic path).
  int num_shards = 0;
  int num_dirty_shards = 0;
  int dual_rounds = 0;
  double shard_gap = 0.0;
};

/// The complete serving state of a Session at a command boundary — what a
/// durability snapshot persists (src/durability/snapshot.h) and recovery
/// restores via Session::FromState(). Everything the next Resolve() reads
/// is here: the mutated instance with its EVOLVED pair order, the served
/// configuration, the cached basis + column keys, the resolve counter,
/// the rounding RNG, and the dirty flags. The last fractional solution and
/// the LP engine are deliberately absent: every resolve refreshes the
/// engine and rebuilds the fractional solution before any read, and an
/// engine only memoizes work, so a restored session starting without one
/// answers bit-identically. Sharded-mode coordinator state is also
/// rebuilt (the first post-recovery sharded resolve re-partitions).
struct SessionState {
  SvgicInstance instance;
  Configuration config;
  LpBasis basis;
  CompactLpKeys keys;
  bool valid_basis = false;
  int num_resolves = 0;
  RngState rng;
  std::vector<char> dirty;
  bool all_dirty = false;
};

/// Durability sink for applied commands (implemented by
/// durability/SessionJournal). Session::Apply() appends every command that
/// actually mutated state — after the mutation, so a validation failure
/// journals nothing and the log replays exactly the applied stream.
class CommandJournal {
 public:
  virtual ~CommandJournal() = default;
  /// `resolved` is true for the kResolve entries (fsync-on-resolve policy).
  virtual Status Append(const SessionCommand& command, bool resolved) = 0;
  /// False once a failed append/rotation made the journal unreliable: the
  /// in-memory state advanced past what the changelog holds. Apply()
  /// checks this BEFORE mutating and refuses new commands while unhealthy,
  /// so the divergence never silently grows past the one lost record.
  virtual bool healthy() const { return true; }
};

/// What one Apply(SessionCommand) did. `assigned_id` carries the id a
/// kJoin/kAddItem command allocated; `report` is valid iff `resolved`.
struct CommandOutcome {
  int64_t assigned_id = -1;
  bool resolved = false;
  /// Resolve requests folded into this one's Resolve() beyond itself
  /// (set by SessionManager when coalescing; 0 on the in-process path).
  int coalesced = 0;
  /// True when this resolve request was answered by ANOTHER request's
  /// Resolve() (it shares the group's report; exactly one request per
  /// coalesced group has this false — the metrics layer counts actual
  /// solves vs folded requests from it).
  bool coalesced_away = false;
  ResolveReport report;
};

class Session {
 public:
  /// Takes ownership of the instance (pairs are finalized here).
  explicit Session(SvgicInstance instance, SessionOptions options = {});
  /// Hands over a verify job still held (EnqueueHeldVerify()).
  ~Session();

  // Not movable: the sharded-mode coordinator holds a pointer to
  // instance_, so a moved Session would leave it dangling. Heap-allocate
  // (as SessionManager does) to store sessions in containers.
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  Session(Session&&) = delete;
  Session& operator=(Session&&) = delete;

  /// Reconstructs a session from a captured state (durability recovery).
  /// The instance's evolved pair order is restored verbatim — FinalizePairs
  /// is NOT re-run — and the cached basis warm-starts the first resolve,
  /// so recovery never pays a cold solve. `options` must match the
  /// original session's (options are configuration, not state; the
  /// operator passes the same flags across a restart).
  static std::unique_ptr<Session> FromState(SessionState state,
                                            SessionOptions options);

  /// Copies the complete serving state (see SessionState). Only valid at a
  /// command boundary — the SessionManager calls it while its drain task
  /// owns the session.
  SessionState CaptureState() const;

  /// Attaches the durability journal Apply() appends to (nullptr
  /// detaches). Replay during recovery runs with no journal attached, then
  /// re-attaches — replayed commands must not be re-journaled.
  void set_journal(CommandJournal* journal) { journal_ = journal; }

  /// Fault injection for tests and operational backpressure drills: caps
  /// the simplex iteration count of every subsequent resolve (the
  /// per-solve limit, not cumulative). The resolve-failure path must leave
  /// the served configuration, basis and RNG untouched; the regression
  /// test drives that with limits of 0 and 1.
  void set_max_lp_iterations(int max_iterations) {
    options_.simplex.max_iterations = max_iterations;
    served_answer_.reset();  // the limit may fail the full path
  }

  const SvgicInstance& instance() const { return instance_; }
  /// The currently served configuration (empty before the first Resolve).
  const Configuration& config() const { return config_; }
  bool HasConfig() const { return config_.num_users() > 0; }
  int num_resolves() const { return num_resolves_; }

  // --- The unified command entry point -----------------------------------

  /// Applies one SessionCommand — THE mutation/resolve path every caller
  /// (wire protocol, command-log replay, CLI, benches) goes through. A
  /// kResolve command runs Resolve() and returns the report in the
  /// outcome; kJoin/kAddItem return the allocated id. Mutations take
  /// effect at the next resolve.
  Result<CommandOutcome> Apply(const SessionCommand& command);

  /// Re-optimizes: incremental warm-started LP + dirty-user re-rounding,
  /// or a cold solve (see class comment). With `force_cold` the cached
  /// basis and configuration are ignored (benchmark reference path).
  ///
  /// No-op resolves: when no command other than a resolve has succeeded
  /// since the last successful resolve, that resolve ran the full
  /// monolithic path as a warm kIncremental solve with 0 pivots, this one
  /// is not `force_cold`, and neither the drift trigger nor a subgroup
  /// size cap is set, the full path would factor the same basis of the
  /// same LP and keep every unit of the served configuration — so its
  /// answer is reused without building, solving or rounding anything. The
  /// reuse still draws the rounding seed from the RNG and counts the
  /// resolve, so CaptureState() and every replay stay bit-identical; it
  /// reports path kIncremental, 0 pivots, the same LP objective and scaled
  /// total, and zeroed LP statistics (no refactorization ran). The reusable
  /// answer is not part of SessionState: the first resolve after
  /// FromState() runs the full path.
  Result<ResolveReport> Resolve(bool force_cold = false);

  /// Under a ScopedHoldVerify, a sampled resolve reserves its verify job
  /// and holds it; this snapshots the instance and configuration, both
  /// still those of that resolve, into the job and enqueues it. The
  /// SessionManager calls it once the requests are answered; Apply() and
  /// Resolve() call it first, so a held job never outlives the next
  /// command.
  void EnqueueHeldVerify();

 private:
  /// Restore path: adopts the instance as-is (already finalized with the
  /// evolved pair order) instead of re-running FinalizePairs.
  struct RestoreTag {};
  Session(SvgicInstance instance, SessionOptions options, RestoreTag);

  // Per-command mutation implementations behind Apply()'s dispatch.
  /// Apply() minus the journal append (the dispatch switch itself).
  Result<CommandOutcome> ApplyImpl(const SessionCommand& command);
  Status ApplyPref(UserId u, ItemId c, double value);
  Status ApplyTau(UserId u, UserId v, ItemId c, double value);
  Status ApplyFriend(UserId u, UserId v);
  UserId ApplyJoin();
  Status ApplyLeave(UserId u);
  Status ApplyLambda(double lambda);
  ItemId ApplyAddItem();
  Status ApplyRetireItem(ItemId c);

  void MarkDirty(UserId u);
  void MarkAllDirty() { all_dirty_ = true; }
  /// Dirty flags are only cleared once a Resolve() succeeds: a failed
  /// re-solve must not lose which users' units are stale.
  std::vector<UserId> CollectDirtyUsers() const;
  void ClearDirty();
  /// Mean fractional mass `frac` puts on the previously served units of
  /// users with keep[u] != 0 (the kept-unit utility share; 1.0 when no
  /// unit qualifies). See SessionOptions::reround_utility_threshold.
  double KeptUtilityShare(const FractionalSolution& frac,
                          const std::vector<char>& keep) const;
  Result<ResolveReport> ResolveMonolithic(bool force_cold);
  /// Answers a no-op resolve from served_answer_ (see Resolve()).
  ResolveReport ReuseServedAnswer();
  /// Stamps the session id on `job` and holds it (under a
  /// ScopedHoldVerify) or snapshots and enqueues it now.
  void EnqueueVerify(VerifyJob job);
  /// Snapshots the instance and served configuration into `job` and
  /// queues it on the verifier.
  void SubmitVerify(VerifyJob job, bool reserved);
  /// Sharded path: dirty users map to dirty shards; only those shards
  /// re-solve and re-round (see SessionOptions::use_sharding).
  Result<ResolveReport> ResolveSharded(bool force_cold);

  SvgicInstance instance_;
  SessionOptions options_;
  Rng rng_;

  Configuration config_;
  /// Basis + keys of the last compact-LP solve (valid_basis_ gates use).
  LpBasis basis_;
  CompactLpKeys keys_;
  bool valid_basis_ = false;
  /// The compact LP of the latest monolithic resolve, kept across resolves
  /// (not state: empty after FromState(); each resolve's Refresh compares
  /// keys, so a failed resolve leaves nothing to trust).
  CompactLpEngine lp_;
  int num_resolves_ = 0;

  std::vector<char> dirty_;  ///< per-user dirty flag, indexed by id
  bool all_dirty_ = false;

  /// The last resolve's answer while a resolve would reproduce it (see
  /// Resolve()); reset by every other applied command.
  struct ServedAnswer {
    ResolveReport report;
    /// True once a verify job covered this answer, or without a verifier.
    bool audited = false;
    /// Solution vectors of the unverified solve that produced the answer,
    /// moved into the first sampled reuse's verify job (whose worker
    /// rebuilds the LP they solve).
    std::vector<double> x;
    std::vector<double> duals;
  };
  std::optional<ServedAnswer> served_answer_;
  /// A reserved verify job waiting for EnqueueHeldVerify().
  std::optional<VerifyJob> held_verify_;

  /// Durability sink (not owned); see set_journal().
  CommandJournal* journal_ = nullptr;

  /// Sharded-mode state (created on the first sharded resolve).
  std::unique_ptr<ShardCoordinator> coordinator_;
  std::unique_ptr<ThreadPool> shard_pool_;
};

}  // namespace savg
