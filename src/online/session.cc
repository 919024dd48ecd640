#include "online/session.h"

#include <algorithm>
#include <cmath>

#include "core/csf.h"
#include "core/objective.h"
#include "obs/trace.h"
#include "obs/verify.h"
#include "online/basis_projection.h"
#include "util/logging.h"

namespace savg {

const char* ResolvePathName(ResolvePath path) {
  switch (path) {
    case ResolvePath::kCold:
      return "cold";
    case ResolvePath::kIncremental:
      return "incremental";
    case ResolvePath::kColdFallback:
      return "cold-fallback";
  }
  return "?";
}

Session::Session(SvgicInstance instance, SessionOptions options)
    : instance_(std::move(instance)),
      options_(options),
      rng_(options.seed),
      dirty_(instance_.num_users(), 0) {
  instance_.FinalizePairs();
}

Session::Session(SvgicInstance instance, SessionOptions options, RestoreTag)
    : instance_(std::move(instance)),
      options_(options),
      rng_(options.seed),
      dirty_(instance_.num_users(), 0) {
  // No FinalizePairs(): the restored instance carries the evolved pair
  // order; re-finalizing could reorder pairs and break bit-exact replay.
}

Session::~Session() { EnqueueHeldVerify(); }

std::unique_ptr<Session> Session::FromState(SessionState state,
                                            SessionOptions options) {
  auto session = std::unique_ptr<Session>(
      new Session(std::move(state.instance), options, RestoreTag{}));
  session->config_ = std::move(state.config);
  session->basis_ = std::move(state.basis);
  session->keys_ = std::move(state.keys);
  session->valid_basis_ = state.valid_basis;
  session->num_resolves_ = state.num_resolves;
  session->rng_.RestoreState(state.rng);
  session->dirty_ = std::move(state.dirty);
  session->dirty_.resize(session->instance_.num_users(), 0);
  session->all_dirty_ = state.all_dirty;
  return session;
}

SessionState Session::CaptureState() const {
  SessionState state;
  state.instance = instance_;
  state.config = config_;
  state.basis = basis_;
  state.keys = keys_;
  state.valid_basis = valid_basis_;
  state.num_resolves = num_resolves_;
  state.rng = rng_.SaveState();
  state.dirty = dirty_;
  state.all_dirty = all_dirty_;
  return state;
}

namespace {

/// True for a utility the instance can store: p and tau are floats, so a
/// value must be >= 0 (not NaN) and stay finite once narrowed.
bool IsStorableUtility(double value) {
  return value >= 0.0 && std::isfinite(static_cast<float>(value));
}

}  // namespace

void Session::MarkDirty(UserId u) {
  if (u >= 0 && u < static_cast<int>(dirty_.size())) dirty_[u] = 1;
}

std::vector<UserId> Session::CollectDirtyUsers() const {
  std::vector<UserId> users;
  if (all_dirty_) {
    users.resize(instance_.num_users());
    for (UserId u = 0; u < instance_.num_users(); ++u) users[u] = u;
  } else {
    for (UserId u = 0; u < static_cast<int>(dirty_.size()); ++u) {
      if (dirty_[u]) users.push_back(u);
    }
  }
  return users;
}

void Session::ClearDirty() {
  std::fill(dirty_.begin(), dirty_.end(), 0);
  all_dirty_ = false;
}

Status Session::ApplyPref(UserId u, ItemId c, double value) {
  if (u < 0 || u >= instance_.num_users()) {
    return Status::OutOfRange("unknown user");
  }
  if (c < 0 || c >= instance_.num_items()) {
    return Status::OutOfRange("unknown item");
  }
  if (!IsStorableUtility(value)) {
    return Status::InvalidArgument(
        "preference must be finite and >= 0 as a float");
  }
  instance_.set_p(u, c, value);
  MarkDirty(u);
  return Status::OK();
}

Status Session::ApplyTau(UserId u, UserId v, ItemId c,
                         double value) {
  if (u < 0 || u >= instance_.num_users() || v < 0 ||
      v >= instance_.num_users() || u == v) {
    return Status::OutOfRange("invalid user pair");
  }
  if (c < 0 || c >= instance_.num_items()) {
    return Status::OutOfRange("unknown item");
  }
  if (!IsStorableUtility(value)) {
    return Status::InvalidArgument(
        "social utility must be finite and >= 0 as a float");
  }
  EdgeId e = instance_.graph().FindEdge(u, v);
  if (e < 0) {
    SAVG_RETURN_NOT_OK(instance_.AddFriendship(u, v));
    e = instance_.graph().FindEdge(u, v);
  }
  instance_.SetTauValue(e, c, value);
  MarkDirty(u);
  MarkDirty(v);
  return Status::OK();
}

Status Session::ApplyFriend(UserId u, UserId v) {
  if (u < 0 || u >= instance_.num_users() || v < 0 ||
      v >= instance_.num_users() || u == v) {
    return Status::OutOfRange("invalid user pair");
  }
  if (instance_.graph().HasEdge(u, v) && instance_.graph().HasEdge(v, u)) {
    return Status::OK();  // already friends
  }
  SAVG_RETURN_NOT_OK(instance_.AddFriendship(u, v));
  MarkDirty(u);
  MarkDirty(v);
  return Status::OK();
}

UserId Session::ApplyJoin() {
  const UserId u = instance_.AddUser();
  dirty_.resize(instance_.num_users(), 0);
  MarkDirty(u);
  return u;
}

Status Session::ApplyLeave(UserId u) {
  if (u < 0 || u >= instance_.num_users()) {
    return Status::OutOfRange("unknown user");
  }
  instance_.DeactivateUser(u);
  MarkDirty(u);
  // Neighbors lose their pair weights with u; their LP region changes and
  // their units are worth re-rounding.
  for (UserId v : instance_.graph().OutNeighbors(u)) MarkDirty(v);
  for (UserId v : instance_.graph().InNeighbors(u)) MarkDirty(v);
  return Status::OK();
}

Status Session::ApplyLambda(double lambda) {
  if (!(lambda > 0.0 && lambda <= 1.0) ||  // NaN included
      !SvgicInstance::ScalesFinitely(lambda)) {
    return Status::InvalidArgument(
        "session lambda must stay in (0, 1] (the compact LP needs "
        "lambda > 0) and scale preferences finitely");
  }
  instance_.set_lambda(lambda);
  // Objective coefficients change everywhere: re-round every user. The LP
  // shape is untouched, so the basis still warm-starts perfectly.
  MarkAllDirty();
  return Status::OK();
}

ItemId Session::ApplyAddItem() {
  // A brand-new item has no utility for anyone, so no LP column appears
  // and no user needs re-rounding until preferences arrive for it.
  return instance_.AddItem();
}

Status Session::ApplyRetireItem(ItemId c) {
  if (c < 0 || c >= instance_.num_items()) {
    return Status::OutOfRange("unknown item");
  }
  // Users who preferred c lose an LP column; users displaying c must be
  // re-rounded; users with social weight on c are returned by RetireItem.
  for (UserId u = 0; u < instance_.num_users(); ++u) {
    if (instance_.p(u, c) > 0.0) MarkDirty(u);
    // c can exceed the served configuration's item range when the item was
    // added after the last Resolve; such an item is displayed nowhere.
    if (HasConfig() && u < config_.num_users() && c < config_.num_items() &&
        config_.Displays(u, c)) {
      MarkDirty(u);
    }
  }
  for (UserId u : instance_.RetireItem(c)) MarkDirty(u);
  return Status::OK();
}

Result<CommandOutcome> Session::Apply(const SessionCommand& command) {
  EnqueueHeldVerify();
  // A poisoned journal fail-stops the session BEFORE the mutation: one
  // command (the one whose append failed) is applied but un-journaled, and
  // letting more commands through would silently widen that replay gap.
  // The journal recovers by snapshotting the live state (re-anchoring a
  // clean epoch), after which healthy() turns true again.
  if (journal_ != nullptr && !journal_->healthy()) {
    return Status::FailedPrecondition(
        "session journal failed; refusing commands until a snapshot "
        "re-anchors durability");
  }
  auto outcome = ApplyImpl(command);
  // Any applied mutation may change the next answer (see Resolve()).
  if (outcome.ok() && command.type != CommandType::kResolve) {
    served_answer_.reset();
  }
  if (!outcome.ok() || journal_ == nullptr) return outcome;
  // Journal AFTER the mutation: a rejected command changed nothing (every
  // Apply* validates before mutating; a failed Resolve restores its entry
  // state), so the changelog holds exactly the applied stream and replays
  // bit-for-bit. A failed append surfaces as the command's status — the
  // caller must not treat un-journaled state as durable.
  SAVG_RETURN_NOT_OK(journal_->Append(command, outcome->resolved));
  return outcome;
}

Result<CommandOutcome> Session::ApplyImpl(const SessionCommand& command) {
  CommandOutcome outcome;
  switch (command.type) {
    case CommandType::kPref:
      SAVG_RETURN_NOT_OK(ApplyPref(command.u, command.c, command.value));
      return outcome;
    case CommandType::kTau:
      SAVG_RETURN_NOT_OK(
          ApplyTau(command.u, command.v, command.c, command.value));
      return outcome;
    case CommandType::kLambda:
      SAVG_RETURN_NOT_OK(ApplyLambda(command.value));
      return outcome;
    case CommandType::kJoin:
      outcome.assigned_id = ApplyJoin();
      return outcome;
    case CommandType::kFriend:
      SAVG_RETURN_NOT_OK(ApplyFriend(command.u, command.v));
      return outcome;
    case CommandType::kLeave:
      SAVG_RETURN_NOT_OK(ApplyLeave(command.u));
      return outcome;
    case CommandType::kAddItem:
      outcome.assigned_id = ApplyAddItem();
      return outcome;
    case CommandType::kRetireItem:
      SAVG_RETURN_NOT_OK(ApplyRetireItem(command.c));
      return outcome;
    case CommandType::kResolve: {
      auto resolved = Resolve();
      if (!resolved.ok()) return resolved.status();
      outcome.resolved = true;
      outcome.report = *resolved;
      return outcome;
    }
  }
  return Status::InvalidArgument("unknown command type");
}

Result<ResolveReport> Session::Resolve() {
  EnqueueHeldVerify();
  if (served_answer_) {
    return ReuseServedAnswer();
  }
  served_answer_.reset();
  // A failed resolve must be a true no-op on served state: config_ and
  // basis_ only commit at the success point of the resolve paths, dirty
  // flags are kept (ClearDirty runs on success only), and the rounding-seed
  // RNG draw plus the RefinalizePairs() evolution of the instance's pair
  // order are rolled back here — so a retry, and a replay of the changelog
  // (which never journals failed resolves), see the identical random stream
  // AND the identical pair order (the durability state digest covers both).
  const RngState entry_rng = rng_.SaveState();
  std::vector<FriendPair> entry_pairs = instance_.pairs();
  const int entry_finalized = instance_.finalized_edge_count();
  auto report = options_.use_sharding && instance_.lambda() > 0.0 &&
                        instance_.lambda() < 1.0
                    ? ResolveSharded()
                    : ResolveMonolithic();
  if (!report.ok()) {
    rng_.RestoreState(entry_rng);
    instance_.RestoreFinalizedPairs(std::move(entry_pairs), entry_finalized);
  }
  return report;
}

Result<ResolveReport> Session::ResolveMonolithic() {
  Timer total_timer;
  TraceContext* trace = CurrentTrace();
  const std::vector<UserId> dirty = CollectDirtyUsers();
  instance_.RefinalizePairs(dirty);

  const int n = instance_.num_users();
  const int m = instance_.num_items();
  const int k = instance_.num_slots();

  // The engine's LP is brought up to the (validated) instance in place
  // when its keys did not change (value edits only), rebuilt otherwise.
  const int64_t build_start = trace != nullptr ? trace->NowNanos() : 0;
  auto rebuilt = lp_.Refresh(instance_);
  if (!rebuilt.ok()) return rebuilt.status();
  if (trace != nullptr) {
    trace->AddSpan("lp.build", trace->CurrentSpan(), build_start,
                   trace->NowNanos() - build_start);
  }

  ResolveReport report;
  report.num_dirty_users = static_cast<int>(dirty.size());
  report.lp_rebuilt = *rebuilt;

  // Path decision: project the cached basis and measure the perturbation.
  // Keys are unique, so under unchanged keys the projection is the
  // identity and the cached basis warm-starts as it is.
  const bool same_keys =
      keys_.cols == lp_.keys().cols && keys_.rows == lp_.keys().rows;
  const LpBasis* warm = nullptr;
  LpBasis projected;
  if (valid_basis_) {
    BasisProjectionDelta delta;
    if (same_keys) {
      delta.surviving_cols = static_cast<int>(keys_.cols.size());
      warm = &basis_;
    } else {
      projected = ProjectCompactBasis(basis_, keys_, lp_.keys(), &delta);
      warm = &projected;
      report.basis_projected = true;
    }
    report.changed_fraction = delta.ChangedFraction();
    report.path = report.changed_fraction <= options_.cold_fraction_threshold
                      ? ResolvePath::kIncremental
                      : ResolvePath::kColdFallback;
  } else {
    report.path = ResolvePath::kCold;
  }

  SimplexEngine& simplex = lp_.simplex();
  auto sol = report.path == ResolvePath::kIncremental
                 ? simplex.Solve(options_.simplex, warm)
                 : simplex.Solve(options_.simplex);
  if (!sol.ok() && report.path == ResolvePath::kIncremental) {
    // A numerically unusable projection must not take the session down.
    report.path = ResolvePath::kColdFallback;
    sol = simplex.Solve(options_.simplex);
  }
  if (!sol.ok()) return sol.status();
  report.warm_started = sol->warm_started;
  report.pivots = sol->iterations;
  report.phase1_pivots = sol->phase1_iterations;
  report.lp_objective = sol->objective;
  report.lp_stats = sol->stats;
  report.eta_chain_length = sol->stats.eta_count;
  report.refactorizations = sol->stats.refactorizations;
  if (trace != nullptr) {
    // Deterministic solve attributes on the enclosing session.apply span
    // (timings live on the child spans; these are bit-stable counters).
    const int span = trace->CurrentSpan();
    trace->AddCounter(span, "pivots", report.pivots);
    trace->AddCounter(span, "phase1_pivots", report.phase1_pivots);
    trace->AddCounter(span, "dirty_users", report.num_dirty_users);
    trace->AddCounter(span, "eta_chain", report.eta_chain_length);
    trace->AddCounter(span, "lp_rebuilt", report.lp_rebuilt ? 1 : 0);
    trace->AddLabel(span, "path", ResolvePathName(report.path));
  }

  // Extract the compact fractional solution; only the rounding below
  // reads it, and nothing of it outlives this resolve.
  FractionalSolution frac =
      CompactFractionalSolution(instance_, lp_.map(), *sol);
  frac.BuildSupporters(options_.prune_tolerance);

  // Re-round: keep the previous configuration's units for clean users (on
  // the incremental paths), leaving only dirty users' units eligible for
  // the CSF sampling loop.
  {
    TraceScope round_span("csf.round");
    std::vector<char> is_dirty(n, 0);
    for (UserId u : dirty) is_dirty[u] = 1;
    const bool keep_clean_units =
        HasConfig() && report.path != ResolvePath::kCold;
    CsfState state(instance_, frac, options_.rounding.size_cap);
    int kept_units = 0;
    if (keep_clean_units) {
      for (UserId u = 0; u < std::min(n, config_.num_users()); ++u) {
        if (is_dirty[u]) continue;
        for (SlotId s = 0; s < k; ++s) {
          const ItemId c = config_.At(u, s);
          if (c == kNoItem || c >= m) continue;
          if (state.AssignUnit(u, s, c).ok()) ++kept_units;
        }
      }
    }
    report.rerounded_units = n * k - kept_units;

    AvgOptions rounding = options_.rounding;
    rounding.seed = rng_.Next();
    auto rounded = RunCsfSampling(&state, rounding);
    if (!rounded.ok()) return rounded.status();
    config_ = std::move(rounded->config);
    round_span.Counter("rerounded_units", report.rerounded_units);
  }
  report.scaled_total = Evaluate(instance_, config_).ScaledTotal();

  // The solution vectors are dead after this function, so the audit
  // payload moves instead of copying: into the verify job, or into the
  // served answer a no-op resolve may audit later.
  const bool verify = options_.verifier != nullptr &&
                      options_.verifier->ShouldVerify(ForceVerifyRequested());
  if (verify) {
    VerifyJob job;
    job.reported_scaled_total = report.scaled_total;
    job.audit_lp = true;
    job.x = std::move(sol->x);
    job.duals = std::move(sol->dual_values);
    EnqueueVerify(std::move(job));
  }
  // A warm 0-pivot solve ended on the basis it started from, so the next
  // resolve, if nothing changes meanwhile, re-factors that basis of the
  // same LP and keeps every unit: record the answer it would produce. A
  // subgroup size cap could refuse a kept unit the greedy completion placed
  // past it.
  if (report.path == ResolvePath::kIncremental && report.pivots == 0 &&
      report.warm_started &&
      options_.rounding.size_cap == CsfState::kNoSizeCap) {
    ServedAnswer& answer = served_answer_.emplace();
    answer.report.path = ResolvePath::kIncremental;
    answer.report.warm_started = true;
    answer.report.lp_objective = report.lp_objective;
    answer.report.scaled_total = report.scaled_total;
    answer.audited = verify || options_.verifier == nullptr;
    if (!answer.audited) {
      answer.x = std::move(sol->x);
      answer.duals = std::move(sol->dual_values);
    }
  }

  basis_ = std::move(sol->basis);
  if (!same_keys) keys_ = lp_.keys();
  valid_basis_ = true;
  ClearDirty();
  ++num_resolves_;
  report.total_seconds = total_timer.ElapsedSeconds();
  return report;
}

ResolveReport Session::ReuseServedAnswer() {
  Timer total_timer;
  ServedAnswer& answer = *served_answer_;
  if (TraceContext* trace = CurrentTrace()) {
    const int span = trace->CurrentSpan();
    trace->AddCounter(span, "pivots", 0);
    trace->AddCounter(span, "phase1_pivots", 0);
    trace->AddCounter(span, "dirty_users", 0);
    trace->AddCounter(span, "eta_chain", 0);
    trace->AddCounter(span, "reused", 1);
    trace->AddLabel(span, "path", ResolvePathName(answer.report.path));
  }
  // One sampling decision per resolve, as on the full path. The audit
  // inputs of a reused answer are byte-identical to its first audit's, so
  // an answer is audited at most once.
  if (options_.verifier != nullptr &&
      options_.verifier->ShouldVerify(ForceVerifyRequested()) &&
      !answer.audited) {
    VerifyJob job;
    job.reported_scaled_total = answer.report.scaled_total;
    // Nothing changed since the solve: the instance stamped on the job is
    // the one whose LP x and the duals solve.
    job.audit_lp = true;
    job.x = std::move(answer.x);
    job.duals = std::move(answer.duals);
    EnqueueVerify(std::move(job));
    answer.audited = true;
  }
  // The draw the full path's rounding seed would have taken, and its
  // resolve count: the session state stays what a full resolve leaves.
  rng_.Next();
  ++num_resolves_;
  ResolveReport report = answer.report;
  report.reused = true;
  report.total_seconds = total_timer.ElapsedSeconds();
  return report;
}

void Session::EnqueueVerify(VerifyJob job) {
  job.session_id = options_.verifier_session_id;
  if (HoldVerifyRequested()) {
    options_.verifier->Reserve();
    held_verify_ = std::move(job);
    return;
  }
  SubmitVerify(std::move(job), /*reserved=*/false);
}

void Session::EnqueueHeldVerify() {
  if (!held_verify_) return;
  VerifyJob job = std::move(*held_verify_);
  held_verify_.reset();
  SubmitVerify(std::move(job), /*reserved=*/true);
}

void Session::SubmitVerify(VerifyJob job, bool reserved) {
  job.instance = instance_;
  job.config = config_;
  options_.verifier->Enqueue(std::move(job), reserved);
}

Result<ResolveReport> Session::ResolveSharded() {
  Timer total_timer;
  const std::vector<UserId> dirty = CollectDirtyUsers();
  instance_.RefinalizePairs(dirty);
  SAVG_RETURN_NOT_OK(instance_.Validate());

  ResolveReport report;
  report.num_dirty_users = static_cast<int>(dirty.size());

  const bool first_solve = coordinator_ == nullptr;
  if (first_solve) {
    ShardSolveOptions sharding = options_.sharding;
    sharding.rounding = options_.rounding;
    coordinator_ =
        std::make_unique<ShardCoordinator>(&instance_, sharding);
    shard_pool_ = std::make_unique<ThreadPool>(sharding.num_workers);
    SAVG_RETURN_NOT_OK(coordinator_->Build());
  } else {
    SAVG_RETURN_NOT_OK(coordinator_->Refresh(dirty));
  }
  if (all_dirty_) coordinator_->MarkAllDirty();
  report.path = first_solve ? ResolvePath::kCold : ResolvePath::kIncremental;

  ShardSolveStats stats;
  SAVG_RETURN_NOT_OK(coordinator_->SolveFractional(shard_pool_.get(), &stats));
  report.num_shards = stats.num_shards;
  report.num_dirty_shards = stats.dirty_shards;
  report.dual_rounds = stats.dual_rounds;
  report.shard_gap = stats.gap;
  report.pivots = static_cast<int>(stats.lp_pivots);
  report.lp_objective = stats.primal_objective;
  if (TraceContext* trace = CurrentTrace()) {
    const int span = trace->CurrentSpan();
    trace->AddCounter(span, "pivots", report.pivots);
    trace->AddCounter(span, "dirty_users", report.num_dirty_users);
    trace->AddCounter(span, "shards", report.num_shards);
    trace->AddCounter(span, "dirty_shards", report.num_dirty_shards);
    trace->AddCounter(span, "dual_rounds", report.dual_rounds);
    trace->AddLabel(span, "path", ResolvePathName(report.path));
  }

  // Every unit re-rounds: one global CSF pass over the stitched relaxation
  // (the clean shards' x rows are their cached solutions).
  SAVG_ASSIGN_OR_RETURN(config_, coordinator_->Round(rng_.Next(), &stats));
  report.rerounded_units = instance_.num_users() * instance_.num_slots();
  report.scaled_total = Evaluate(instance_, config_).ScaledTotal();

  if (options_.verifier != nullptr &&
      options_.verifier->ShouldVerify(ForceVerifyRequested())) {
    // No single LP exists on the sharded path; the audit covers
    // configuration validity and the recomputed objective only.
    VerifyJob job;
    job.reported_scaled_total = report.scaled_total;
    EnqueueVerify(std::move(job));
  }

  ClearDirty();
  ++num_resolves_;
  report.total_seconds = total_timer.ElapsedSeconds();
  return report;
}

}  // namespace savg
