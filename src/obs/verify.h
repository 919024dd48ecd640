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
//     full KKT audit of the solved LP via lp/kkt.h, on the exact model,
//     point and duals the solve produced.
//
// Results flow into verify.pass / verify.fail (+ per-kind fail counters);
// the health monitor trips `unhealthy` on any fail. The hot-path cost is
// one sampling branch plus, for sampled requests, snapshotting the
// instance/config and moving the already-built LP into the job — the
// checks themselves never run on the serving thread. A bounded queue
// drops jobs (verify.dropped) rather than ever backpressuring resolves.
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
#include "lp/lp_model.h"
#include "metrics/registry.h"

namespace savg {

/// One queued verification: self-contained snapshots, no live pointers.
struct VerifyJob {
  uint32_t session_id = 0;
  SvgicInstance instance;
  Configuration config;
  double reported_scaled_total = 0.0;
  /// LP audit payload (monolithic resolves; absent for sharded solves).
  bool has_lp = false;
  LpModel lp;
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

  void Enqueue(VerifyJob job);

  /// Blocks until every enqueued job has been checked (tests, shutdown).
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

}  // namespace savg
