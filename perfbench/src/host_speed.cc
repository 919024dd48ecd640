#include "host_speed.h"

#include <pthread.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <unordered_map>

#include "bench_core.h"
#include "report.h"

namespace perfbench {

namespace {

// The probe unit: about half of its time in dense LU eliminations
// (floating point), a quarter in sparse triangular solves over a 1.7 MB
// factor (indirect loads that miss the L1/L2 caches) and a quarter in
// hash-map inserts and lookups (allocation and pointer chasing).
//
// Timed next to serve-burst rounds and cold relaxations on a shared 4-vCPU
// x86 VM over 540 intervals in which the host's speed swung 2x, a dense-LU
// probe tracked the work best (interquartile spread of work time / probe
// time 0.06-0.07, against 0.31-0.35 for the raw work time), but an hour
// later the same probe read 20% faster while the serving and planning work
// did not: a probe of one kind of work follows one kind of contention. The
// mix trades some of that tracking (about 0.10) for less dependence on any
// single resource of the host's cores.
constexpr int kDenseN = 96;
constexpr int kDenseRepeats = 2;
constexpr int kHashKeys = 2000;
constexpr int kSparseRows = 16384;
constexpr int kSparseOffDiagonal = 8;
constexpr int kSparseSweeps = 1;

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + ts.tv_nsec / 1e6;
}

// SplitMix64: the probe's inputs must not depend on the library's RNG.
uint64_t Mix(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

class ProbeUnit {
 public:
  ProbeUnit() {
    uint64_t state = 42;
    dense_.resize(kDenseN * kDenseN);
    for (double& v : dense_) v = static_cast<double>(Mix(&state) % 1000) / 1e3;
    for (int i = 0; i < kDenseN; ++i) dense_[i * kDenseN + i] += kDenseN;
    row_start_.push_back(0);
    for (int r = 0; r < kSparseRows; ++r) {
      for (int k = 0; k < kSparseOffDiagonal && r > 0; ++k) {
        const uint64_t draw = Mix(&state);
        const int span = (k % 2 == 0) ? std::min(r, 64) : r;
        col_.push_back(r - 1 - static_cast<int>(draw % span));
        val_.push_back(static_cast<double>((draw >> 32) % 1000) / 16000.0);
      }
      row_start_.push_back(static_cast<int>(col_.size()));
    }
    x_.assign(kSparseRows, 1.0);
  }

  // One unit of work; the result only keeps the compiler from eliding it.
  double Run() {
    // Hash map: insert, then look up every key.
    std::unordered_map<uint64_t, int> map;
    uint64_t state = 7;
    for (int i = 0; i < kHashKeys; ++i) map[Mix(&state)] = i;
    state = 7;
    int64_t found = 0;
    for (int i = 0; i < kHashKeys; ++i) found += map[Mix(&state)];
    // Dense LU elimination without pivoting (diagonally dominant).
    for (int rep = 0; rep < kDenseRepeats; ++rep) {
      work_ = dense_;
      for (int k = 0; k < kDenseN; ++k) {
        for (int i = k + 1; i < kDenseN; ++i) {
          const double f = work_[i * kDenseN + k] / work_[k * kDenseN + k];
          for (int j = k; j < kDenseN; ++j) {
            work_[i * kDenseN + j] -= f * work_[k * kDenseN + j];
          }
        }
      }
    }
    // Sparse unit-lower-triangular solves, in place.
    for (int sweep = 0; sweep < kSparseSweeps; ++sweep) {
      for (int r = 0; r < kSparseRows; ++r) {
        double sum = x_[r];
        for (int k = row_start_[r]; k < row_start_[r + 1]; ++k) {
          sum -= val_[k] * x_[col_[k]];
        }
        x_[r] = sum;
      }
      double norm = 0.0;
      for (double v : x_) norm = std::max(norm, std::fabs(v));
      for (double& v : x_) v = v / norm + 0.5;
    }
    return static_cast<double>(found) + work_.back() + x_[found % kSparseRows];
  }

 private:
  std::vector<double> dense_, work_;
  std::vector<int> row_start_, col_;
  std::vector<double> val_, x_;
};

}  // namespace

HostSpeedMonitor::HostSpeedMonitor() : thread_([this] { Loop(); }) {
  has_sampler_clock_ =
      pthread_getcpuclockid(thread_.native_handle(), &sampler_clock_) == 0;
}

HostSpeedMonitor::~HostSpeedMonitor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
}

double HostSpeedMonitor::NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void HostSpeedMonitor::Loop() {
  ProbeUnit unit;
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    const double start = NowMs();
    lock.unlock();
    sink_ += unit.Run();  // brings the unit's data back into cache
    const double cpu = ThreadCpuMs();
    const double begin = NowMs();
    sink_ += unit.Run();
    const double unit_ms = ThreadCpuMs() - cpu;
    const double at_ms = (begin + NowMs()) / 2.0;
    lock.lock();
    samples_.push_back({at_ms, unit_ms});
    wake_.wait_for(lock, std::chrono::duration<double, std::milli>(
                             std::max(0.0, start + kPeriodMs - NowMs())),
                   [this] { return stop_; });
  }
}

double HostSpeedMonitor::Slowdown(double from_ms, double to_ms) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> inside;
  for (const Sample& sample : samples_) {
    if (sample.at_ms >= from_ms && sample.at_ms <= to_ms) {
      inside.push_back(sample.unit_ms);
    }
  }
  if (inside.size() < kMinSamples) {
    const double middle = (from_ms + to_ms) / 2.0;
    std::vector<Sample> nearest = samples_;
    const size_t n = std::min(kMinSamples, nearest.size());
    std::partial_sort(nearest.begin(), nearest.begin() + n, nearest.end(),
                      [middle](const Sample& a, const Sample& b) {
                        return std::fabs(a.at_ms - middle) <
                               std::fabs(b.at_ms - middle);
                      });
    inside.clear();
    for (size_t i = 0; i < n; ++i) inside.push_back(nearest[i].unit_ms);
  }
  if (inside.empty()) return 1.0;
  return Median(inside) / kReferenceMs;
}

double HostSpeedMonitor::WorkCpuSeconds() const {
  timespec ts{};
  double sampler = 0.0;
  if (has_sampler_clock_ && clock_gettime(sampler_clock_, &ts) == 0) {
    sampler = static_cast<double>(ts.tv_sec) + ts.tv_nsec / 1e9;
  }
  return ProcessCpuSeconds() - sampler;
}

size_t HostSpeedMonitor::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_.size();
}

}  // namespace perfbench
