// The workload runners and the serving configuration they share.

#pragma once

#include <memory>

#include "durability/session_store.h"
#include "host_speed.h"
#include "online/session.h"
#include "report.h"

namespace perfbench {

/// Serving sessions use the library defaults; only the seed varies.
savg::SessionOptions SessionOptionsFor(uint64_t session_seed);

/// Changelog fsync policy `never` (the disk is shared, so fsync timing
/// would measure the neighbours), count-triggered snapshots only (so the
/// snapshot points are a function of the command count), and a final
/// snapshot on shutdown (a restart recovers without replaying).
savg::DurabilityOptions DurabilityOptionsFor(Workload workload,
                                             const std::string& data_dir);

/// serve-burst / serve-churn. Untraced: end-to-end metrics (the cold
/// planning set included). Traced: a short serving loop (serve overhead,
/// admission, restart), the in-process replay and the planning probe.
void RunServe(const BenchArgs& args, Report* report);

/// The traced in-process replay of the serve workloads' command streams
/// (per-layer metrics; see replay.cc).
void RunReplay(const BenchArgs& args, Report* report);

/// Offline cold planning of PlanProbeSpecs, layer by layer (per-layer
/// metrics; see plan_probe.cc).
void RunPlanProbe(const BenchArgs& args, Report* report);

/// cold_solve_cpu_s: CPU time to plan the whole PlanProbeSpecs set once,
/// cold and single-threaded, with the registered AVG solver, at reference
/// host speed (`monitor`); the median of the passes, which must agree
/// exactly (see plan_probe.cc).
class ColdPlanning {
 public:
  /// Generates the set (untimed).
  ColdPlanning(const BenchArgs& args, const HostSpeedMonitor& monitor,
               Report* report);
  ~ColdPlanning();

  /// Plans the whole set once and times it; a failed plan is reported and
  /// ends the passes.
  void Pass();
  /// Reports cold_solve_cpu_s, the median pass.
  void Finish();

 private:
  struct State;
  const BenchArgs& args_;
  const HostSpeedMonitor& monitor_;
  Report* report_;
  std::unique_ptr<State> state_;
};

}  // namespace perfbench
