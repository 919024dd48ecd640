#include "util/random.h"

#include <cassert>
#include <cmath>
#include <numeric>

namespace savg {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

RngState Rng::SaveState() const {
  RngState state;
  for (int i = 0; i < 4; ++i) state.s[i] = s_[i];
  state.has_cached_normal = has_cached_normal_;
  state.cached_normal = cached_normal_;
  return state;
}

void Rng::RestoreState(const RngState& state) {
  for (int i = 0; i < 4; ++i) s_[i] = state.s[i];
  has_cached_normal_ = state.has_cached_normal;
  cached_normal_ = state.cached_normal;
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 random mantissa bits.
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * Uniform();
}

uint64_t Rng::UniformInt(uint64_t n) {
  assert(n > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0 - n) % n;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % n;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  return lo + static_cast<int64_t>(
                  UniformInt(static_cast<uint64_t>(hi - lo) + 1));
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

double Rng::Normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1, u2;
  do {
    u1 = Uniform();
  } while (u1 <= 1e-300);
  u2 = Uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

uint64_t Rng::Zipf(uint64_t n, double s) {
  assert(n > 0);
  if (n == 1) return 0;
  // Inverse-CDF via the rejection method of Devroye for the Zipf
  // distribution; O(1) per sample after O(1) setup.
  if (s <= 0.0) return UniformInt(n);
  const double nd = static_cast<double>(n);
  if (std::abs(s - 1.0) < 1e-12) {
    // Harmonic case: invert H(x) ~ log(x).
    const double h = std::log(nd + 1.0);
    for (;;) {
      double u = Uniform();
      double x = std::exp(u * h) - 1.0;
      uint64_t k = static_cast<uint64_t>(x);
      if (k < n) return k;
    }
  }
  const double one_minus_s = 1.0 - s;
  const double zeta_ish =
      (std::pow(nd + 1.0, one_minus_s) - 1.0) / one_minus_s;
  for (;;) {
    double u = Uniform();
    double x = std::pow(u * zeta_ish * one_minus_s + 1.0, 1.0 / one_minus_s) -
               1.0;
    uint64_t k = static_cast<uint64_t>(x);
    // Accept with the ratio of the true pmf to the envelope; the envelope
    // is tight for the continuous relaxation, so accept directly (small
    // distortion is acceptable for workload generation).
    if (k < n) return k;
  }
}

size_t Rng::Discrete(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w > 0) total += w;
  }
  if (total <= 0.0) return weights.size();
  double target = Uniform() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] <= 0) continue;
    acc += weights[i];
    if (target < acc) return i;
  }
  // Floating point slack: return the last positive-weight index.
  for (size_t i = weights.size(); i > 0; --i) {
    if (weights[i - 1] > 0) return i - 1;
  }
  return weights.size();
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t count) {
  assert(count <= n);
  std::vector<size_t> idx(n);
  std::iota(idx.begin(), idx.end(), size_t{0});
  // Partial Fisher-Yates: the first `count` entries become the sample.
  for (size_t i = 0; i < count; ++i) {
    size_t j = i + UniformInt(static_cast<uint64_t>(n - i));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(count);
  return idx;
}

}  // namespace savg
