// Host-speed monitor: states each end-to-end timing at a fixed host speed.
//
// On a shared VM the same single-threaded work runs up to 2 times slower
// for seconds to minutes at a time, with no steal time: other guests busy
// the host's cores, which slows every instruction stream on them. CPU time
// cannot remove that. So a sampler thread, pinned to the same CPU as the
// rest of the process (main.cc pins it), runs a fixed probe unit every
// kPeriodMs and records its thread CPU time; a timing taken over an
// interval is divided by the host's slowdown in that interval, the median
// probe time of the samples taken in it over the probe's time at reference
// speed.
//
// The probe belongs to the benchmark, not to the library: a change to the
// library cannot move it, so such a change still moves normalised timings.

#pragma once

#include <time.h>

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

class HostSpeedMonitor {
 public:
  /// The probe unit's CPU time at reference speed: a normalised timing is
  /// what the work takes on a host on which one probe unit takes this long.
  static constexpr double kReferenceMs = 1.0;
  /// Wall time between the starts of two samples.
  static constexpr double kPeriodMs = 25.0;

  /// Starts the sampler thread.
  HostSpeedMonitor();
  /// Stops and joins the sampler thread.
  ~HostSpeedMonitor();
  HostSpeedMonitor(const HostSpeedMonitor&) = delete;
  HostSpeedMonitor& operator=(const HostSpeedMonitor&) = delete;

  /// Monotonic clock in ms: the time base of the samples.
  static double NowMs();

  /// The host's slowdown over [from_ms, to_ms]: the median probe time of
  /// the samples taken in the interval over kReferenceMs. With fewer than
  /// kMinSamples inside, the kMinSamples samples nearest to its middle.
  double Slowdown(double from_ms, double to_ms) const;

  /// Process CPU time in seconds without the sampler thread's.
  double WorkCpuSeconds() const;

  /// Samples taken so far.
  size_t samples() const;

 private:
  static constexpr size_t kMinSamples = 3;

  struct Sample {
    double at_ms;    // middle of the timed probe run
    double unit_ms;  // its thread CPU time
  };

  void Loop();

  mutable std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::vector<Sample> samples_;
  double sink_ = 0.0;  // keeps the probe's work from being optimised away
  std::thread thread_;
  clockid_t sampler_clock_{};
  bool has_sampler_clock_ = false;
};

}  // namespace perfbench
