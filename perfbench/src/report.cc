#include "report.h"

#include <dirent.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <ctime>
#include <iostream>

namespace perfbench {

namespace {

// Shortest round-trip decimal form of a finite double (JSON number).
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void Report::Add(const std::string& name, double value,
                 const std::string& unit, const std::string& detail) {
  metrics_.push_back({name, value, unit});
  std::cout << "# " << name << " = " << Fmt(value, 4) << " " << unit;
  if (!detail.empty()) std::cout << "  (" << detail << ")";
  std::cout << "\n";
}

void Report::AddTiming(const std::string& name, const TimingSummary& summary,
                       const std::string& unit) {
  std::string detail = "median of n=" + std::to_string(summary.count);
  if (summary.tail_percentile > 0.0) {
    detail += ", p" + Fmt(summary.tail_percentile, 1) + " " +
              Fmt(summary.tail, 4) + " " + unit;
  } else {
    detail += ", too few samples for a tail";
  }
  Add(name, summary.median, unit, detail);
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::cout << "# CHECK FAILED: " << what << "\n";
}

void Report::Note(const std::string& line) {
  std::cout << "# " << line << "\n";
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " +
           JsonNumber(metrics_[i].value) + ", \"unit\": \"" +
           metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec / 1e9;
}

std::string Fmt(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

void RemoveTree(const std::string& path) {
  if (DIR* dir = opendir(path.c_str())) {
    while (dirent* entry = readdir(dir)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      const std::string child = path + "/" + name;
      struct stat st {};
      if (lstat(child.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
        RemoveTree(child);
      } else {
        unlink(child.c_str());
      }
    }
    closedir(dir);
  }
  rmdir(path.c_str());
}

int64_t FileSize(const std::string& path) {
  struct stat st {};
  if (stat(path.c_str(), &st) != 0) return 0;
  return static_cast<int64_t>(st.st_size);
}

}  // namespace perfbench
