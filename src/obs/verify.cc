#include "obs/verify.h"

#include <sys/resource.h>

#include <cmath>
#include <utility>

#include "core/lp_formulation.h"
#include "core/objective.h"
#include "lp/kkt.h"
#include "obs/structured_log.h"
#include "util/logging.h"

namespace savg {

namespace {

/// KKT / objective tolerance (relative for the objective audit).
constexpr double kTolerance = 1e-5;

thread_local bool t_force_verify = false;
thread_local bool t_hold_verify = false;

}  // namespace

bool ForceVerifyRequested() { return t_force_verify; }

ScopedForceVerify::ScopedForceVerify(bool forced)
    : previous_(t_force_verify) {
  t_force_verify = forced;
}

ScopedForceVerify::~ScopedForceVerify() { t_force_verify = previous_; }

bool HoldVerifyRequested() { return t_hold_verify; }

ScopedHoldVerify::ScopedHoldVerify() : previous_(t_hold_verify) {
  t_hold_verify = true;
}

ScopedHoldVerify::~ScopedHoldVerify() { t_hold_verify = previous_; }

SolutionVerifier::SolutionVerifier(MetricsRegistry* metrics,
                                   VerifierOptions options)
    : options_(options),
      pass_(metrics->GetCounter("verify.pass")),
      fail_(metrics->GetCounter("verify.fail")),
      dropped_(metrics->GetCounter("verify.dropped")),
      fail_config_(metrics->GetCounter("verify.fail.config")),
      fail_objective_(metrics->GetCounter("verify.fail.objective")),
      fail_kkt_(metrics->GetCounter("verify.fail.kkt")),
      fail_injected_(metrics->GetCounter("verify.fail.injected")),
      kkt_audits_(metrics->GetCounter("verify.kkt_audits")),
      latency_(metrics->GetHistogram("verify.latency")) {
  worker_ = std::thread([this] { WorkerLoop(); });
}

SolutionVerifier::~SolutionVerifier() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  worker_.join();
}

bool SolutionVerifier::ShouldVerify(bool forced) {
  if (forced) return true;
  if (options_.sample_every <= 0) return false;
  const uint64_t seq = sample_seq_.fetch_add(1, std::memory_order_relaxed);
  return seq % static_cast<uint64_t>(options_.sample_every) == 0;
}

void SolutionVerifier::Enqueue(VerifyJob job, bool reserved) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (reserved) --reserved_;
    if (queue_.size() >= options_.max_pending) {
      dropped_->Increment();
      if (queue_.empty() && !running_) idle_cv_.notify_all();
      return;
    }
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void SolutionVerifier::Reserve() {
  std::lock_guard<std::mutex> lock(mu_);
  ++reserved_;
}

void SolutionVerifier::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] {
    return queue_.empty() && !running_ && reserved_ == 0;
  });
}

void SolutionVerifier::WorkerLoop() {
  // The lowest priority: woken by a serving thread's Enqueue(), the worker
  // would otherwise often preempt that thread on its own CPU and delay its
  // response by a whole audit, which builds an LP. On Linux the nice
  // value is per thread, so this lowers only the worker.
  setpriority(PRIO_PROCESS, 0, 19);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stop_) return;
      continue;
    }
    {
      VerifyJob job = std::move(queue_.front());
      queue_.pop_front();
      running_ = true;
      lock.unlock();
      RunJob(job);
      // The job's instance copy and vectors are freed here, before mu_ is
      // re-taken: that teardown costs about as much as the audit, and
      // Enqueue() on a serving thread would otherwise wait it out.
    }
    lock.lock();
    running_ = false;
    if (queue_.empty()) idle_cv_.notify_all();
  }
}

void SolutionVerifier::RunJob(const VerifyJob& job) {
  Timer timer;
  std::string failure;

  if (inject_failures_.load(std::memory_order_relaxed)) {
    failure = "injected";
    fail_injected_->Increment();
  }
  if (failure.empty()) {
    Status valid = job.config.CheckValid();
    if (!valid.ok()) {
      failure = "config";
      fail_config_->Increment();
    }
  }
  double recomputed = 0.0;
  if (failure.empty()) {
    recomputed = Evaluate(job.instance, job.config).ScaledTotal();
    const double scale = std::max(1.0, std::abs(job.reported_scaled_total));
    if (std::abs(recomputed - job.reported_scaled_total) >
        kTolerance * scale) {
      failure = "objective";
      fail_objective_->Increment();
    }
  }
  KktReport kkt;
  if (failure.empty() && job.audit_lp) {
    kkt_audits_->Increment();
    CompactLpMap map;
    auto lp = BuildCompactLp(job.instance, &map);
    const bool shaped = lp.ok() &&
                        static_cast<int>(job.x.size()) == lp->num_vars() &&
                        static_cast<int>(job.duals.size()) == lp->num_rows();
    if (shaped) kkt = CheckLpKkt(*lp, job.x, job.duals);
    if (!shaped || !kkt.Ok(kTolerance)) {
      failure = "kkt";
      fail_kkt_->Increment();
    }
  }

  latency_->Observe(timer.ElapsedSeconds());
  if (failure.empty()) {
    pass_->Increment();
    return;
  }
  fail_->Increment();
  LogEvent(LogLevel::kError, "verify.fail",
           LogFields()
               .Add("session", static_cast<int64_t>(job.session_id))
               .Add("kind", failure)
               .Add("reported_objective", job.reported_scaled_total)
               .Add("recomputed_objective", recomputed)
               .Add("kkt_violation", kkt.MaxViolation()));
}

}  // namespace savg
