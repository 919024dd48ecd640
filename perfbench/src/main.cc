// perfbench: the SVGIC stack's benchmark program.
//
//   perfbench --workload serve-burst|serve-churn --seed N
//             --seconds S --trace 0|1 --data-dir DIR
//
// Prints detail lines ("# ...") and, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 1 when a
// correctness check failed, 2 on bad arguments.

#include <sched.h>

#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

using perfbench::BenchArgs;
using perfbench::Report;

int Usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload serve-burst|serve-churn "
               "--seed N --seconds S --trace 0|1 --data-dir DIR\n";
  return 2;
}

// Pins the process, and so every thread it starts, to the CPU it runs on.
// One request is in flight at a time, so the server loses no parallelism;
// the host-speed probe and the measured work then share one core's speed,
// and hand-offs between threads never wake an idle CPU.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = sched_getcpu();
  if (cpu < 0 || !CPU_ISSET(cpu, &allowed)) {
    for (cpu = 0; cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &allowed); ++cpu) {
    }
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage("unexpected argument " + key);
    flags[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  for (const char* required : {"workload", "seed", "seconds", "trace",
                               "data-dir"}) {
    if (flags.count(required) == 0) {
      return Usage(std::string("missing --") + required);
    }
  }
  BenchArgs args;
  auto workload = perfbench::ParseWorkload(flags["workload"]);
  if (!workload.ok()) return Usage(workload.status().ToString());
  args.workload = *workload;
  args.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  args.seconds = std::atof(flags["seconds"].c_str());
  args.trace = flags["trace"] == "1";
  args.data_dir = flags["data-dir"];
  if (args.seconds <= 0.0) return Usage("--seconds must be positive");

  const int cpu = PinToOneCpu();
  Report report;
  Report::Note(std::string("workload ") +
               perfbench::WorkloadName(args.workload) +
               " seed " + std::to_string(args.seed) + " seconds " +
               perfbench::Fmt(args.seconds, 1) +
               (args.trace ? " traced" : " untraced") +
               (cpu >= 0 ? ", pinned to CPU " + std::to_string(cpu)
                         : ", not pinned"));
  perfbench::RunServe(args, &report);
  std::cout << report.Json() << std::endl;
  return report.correct() ? 0 : 1;
}
