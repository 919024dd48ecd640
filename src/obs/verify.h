// Sampled post-solve self-verification of served configurations.
//
// The solver's bugs would otherwise ship silently: an infeasible rounding
// or a subtly wrong dual basis still produces a plausible-looking
// configuration. The SolutionVerifier re-checks 1-in-N served resolves
// off the hot path on a background worker:
//
//   - configuration validity (complete, no duplicate items per user);
//   - objective audit: Evaluate() recomputed from an instance snapshot
//     must match the ScaledTotal the resolve reported;
//   - LP optimality (monolithic resolves only): primal feasibility and a
//     full KKT audit via lp/kkt.h of the point and duals the solve
//     produced, against the compact LP the worker builds afresh from the
//     instance snapshot (BuildCompactLp) — independent of the serving
//     engine's in-place edits.
//
// Results flow into verify.pass / verify.fail (+ per-kind fail counters);
// the health monitor trips `unhealthy` on any fail. The hot-path cost is
// one sampling branch plus, for sampled requests, a reservation: the
// session manager answers the requests first and only then has the
// session copy its instance and configuration and move the solution
// vectors into the job.
// The LP build and the checks never run on a serving thread, and the
// worker runs at the lowest priority, so it cannot preempt one either. A
// bounded queue drops jobs (verify.dropped) rather than ever
// backpressuring resolves.
//
// Wire clients can force verification per-request (kFrameFlagVerify); the
// flag travels resolve-coalescing-aware through the thread-local
// ScopedForceVerify, mirroring how force-trace works.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "core/configuration.h"
#include "core/problem.h"
#include "metrics/registry.h"

namespace savg {

/// One queued verification: self-contained snapshots, no live pointers.
struct VerifyJob {
  uint32_t session_id = 0;
  SvgicInstance instance;
  Configuration config;
  double reported_scaled_total = 0.0;
  /// LP audit payload (monolithic resolves; absent for sharded solves):
  /// the point and row duals of a solve of BuildCompactLp(instance).
  bool audit_lp = false;
  std::vector<double> x;
  std::vector<double> duals;
};

struct VerifierOptions {
  /// Verify every Nth resolve; 0 verifies only forced requests.
  int sample_every = 16;
  /// Queue bound; overflow drops the job (verify.dropped).
  size_t max_pending = 16;
};

class SolutionVerifier {
 public:
  SolutionVerifier(MetricsRegistry* metrics,
                   VerifierOptions options = VerifierOptions());
  ~SolutionVerifier();

  /// Sampling decision for the current resolve (cheap; call on the hot
  /// path before paying for any snapshotting).
  bool ShouldVerify(bool forced);

  /// Queues `job`; past max_pending it is dropped (verify.dropped).
  /// `reserved` redeems one Reserve().
  void Enqueue(VerifyJob job, bool reserved = false);

  /// Promises one Enqueue(job, /*reserved=*/true): Flush() waits for it as
  /// for a queued job (see ScopedHoldVerify).
  void Reserve();

  /// Blocks until every enqueued or reserved job has been checked (tests,
  /// shutdown).
  void Flush();

  /// Fault injection: while on, every job fails with kind "injected" —
  /// exercises the verify.fail -> unhealthy path end to end.
  void InjectFailures(bool on) {
    inject_failures_.store(on, std::memory_order_relaxed);
  }

 private:
  void WorkerLoop();
  void RunJob(const VerifyJob& job);

  VerifierOptions options_;
  Counter* pass_;
  Counter* fail_;
  Counter* dropped_;
  Counter* fail_config_;
  Counter* fail_objective_;
  Counter* fail_kkt_;
  Counter* fail_injected_;
  Counter* kkt_audits_;
  Histogram* latency_;

  std::atomic<uint64_t> sample_seq_{0};
  std::atomic<bool> inject_failures_{false};

  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<VerifyJob> queue_;
  bool running_ = false;  ///< worker is mid-job
  int reserved_ = 0;      ///< Reserve() calls not yet redeemed
  bool stop_ = false;
  std::thread worker_;
};

/// Thread-local force-verify request, set by the session manager around
/// Apply() when any coalesced waiter asked for verification (mirrors the
/// trace-context plumbing in obs/trace.h).
bool ForceVerifyRequested();

class ScopedForceVerify {
 public:
  explicit ScopedForceVerify(bool forced);
  ~ScopedForceVerify();
  ScopedForceVerify(const ScopedForceVerify&) = delete;
  ScopedForceVerify& operator=(const ScopedForceVerify&) = delete;

 private:
  bool previous_;
};

/// Thread-local request, set by the session manager around the resolve it
/// runs for queued requests: a sampled resolve reserves its verify job and
/// the session holds it until the requests are answered
/// (Session::EnqueueHeldVerify), so the instance snapshot the job takes
/// delays no response.
bool HoldVerifyRequested();

class ScopedHoldVerify {
 public:
  ScopedHoldVerify();
  ~ScopedHoldVerify();
  ScopedHoldVerify(const ScopedHoldVerify&) = delete;
  ScopedHoldVerify& operator=(const ScopedHoldVerify&) = delete;

 private:
  bool previous_;
};

}  // namespace savg
