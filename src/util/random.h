// Deterministic pseudo-random number generation.
//
// All randomized components in the library take an explicit seed so that
// experiments are reproducible. Rng wraps a xoshiro256** engine seeded via
// splitmix64, with convenience samplers (uniform, normal, Zipf, discrete,
// shuffles, weighted picks).

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace savg {

/// The complete internal state of an Rng, for exact save/restore (the
/// durability layer snapshots a serving session's generator so replayed
/// resolves draw the identical rounding seeds).
struct RngState {
  uint64_t s[4] = {0, 0, 0, 0};
  /// Box-Muller produces normals in pairs; the spare must survive a
  /// save/restore or the next Normal() would diverge.
  bool has_cached_normal = false;
  double cached_normal = 0.0;

  bool operator==(const RngState& o) const {
    return s[0] == o.s[0] && s[1] == o.s[1] && s[2] == o.s[2] &&
           s[3] == o.s[3] && has_cached_normal == o.has_cached_normal &&
           cached_normal == o.cached_normal;
  }
};

/// One splitmix64 step: advances `*state` by the golden-ratio increment and
/// returns the mixed value. Rng seeds its state from it; callers that need
/// one well-mixed 64-bit value from a few inputs (task and shard seeds,
/// retry jitter) use it directly.
uint64_t SplitMix64(uint64_t* state);

/// Fast, reproducible PRNG (xoshiro256**).
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Exact state capture: RestoreState(SaveState()) is a no-op and the
  /// restored generator produces the identical stream.
  RngState SaveState() const;
  void RestoreState(const RngState& state);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double Uniform();
  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);
  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);
  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);
  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p);
  /// Standard normal via Box-Muller.
  double Normal(double mean = 0.0, double stddev = 1.0);

  /// Zipf-distributed rank in [0, n) with exponent s (>= 0). Rank 0 is the
  /// most probable. Uses an O(n) precomputed table-free rejection-less
  /// inverse-CDF on harmonic weights; suitable for n up to a few million.
  uint64_t Zipf(uint64_t n, double s);

  /// Samples an index with probability proportional to weights[i].
  /// Returns weights.size() if all weights are <= 0.
  size_t Discrete(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = UniformInt(static_cast<uint64_t>(i));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// Samples `count` distinct indices from [0, n) (reservoir-free; uses
  /// partial Fisher-Yates on an index vector). Requires count <= n.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t count);

 private:
  uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace savg
