// Run arguments, the result report and small process helpers shared by the
// workload runners.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_core.h"

namespace perfbench {

struct BenchArgs {
  Workload workload = Workload::kServeBurst;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for durability files (created and removed).
  std::string data_dir;
};

/// Collects metrics and correctness verdicts; prints detail lines as it
/// goes and the final one-line JSON result.
class Report {
 public:
  /// Records a metric. `detail` (optional) is printed next to it, e.g. the
  /// sample count and tail percentile behind a median.
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& detail = "");
  /// Records a timing summary as its median, printing count and tail.
  void AddTiming(const std::string& name, const TimingSummary& summary,
                 const std::string& unit);

  /// Checks a correctness condition; a false condition fails the run.
  void Check(bool ok, const std::string& what);

  /// Prints one informational line ("# ..." on stdout).
  static void Note(const std::string& line);

  void AddAttempted(int64_t n) { attempted_ += n; }
  void AddFailed(int64_t n) { failed_ += n; }

  bool correct() const { return correct_ && failed_ == 0; }
  /// The final result line.
  std::string Json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Peak resident set size of this process in MiB.
double PeakRssMb();

/// CPU time of the whole process (all threads) in seconds. Time a thread
/// spends blocked or waiting to be woken, and time the hypervisor gives to
/// other guests (steal), are not in it.
double ProcessCpuSeconds();

/// "%.3f"-style formatting without iostream state.
std::string Fmt(double value, int digits = 3);

/// rm -rf of a scratch directory (only ever called on the bench's own
/// data directories).
void RemoveTree(const std::string& path);

/// Size of a regular file in bytes (0 when missing).
int64_t FileSize(const std::string& path);

}  // namespace perfbench
