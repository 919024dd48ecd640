#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace savg {

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double StdDev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double mu = Mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - mu) * (x - mu);
  return std::sqrt(acc / static_cast<double>(xs.size() - 1));
}

double Min(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return *std::min_element(xs.begin(), xs.end());
}

double Max(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return *std::max_element(xs.begin(), xs.end());
}

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  if (p <= 0) return xs.front();
  if (p >= 100) return xs.back();
  const double pos = p / 100.0 * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= xs.size()) return xs.back();
  return xs[lo] * (1.0 - frac) + xs[lo + 1] * frac;
}

double PearsonCorrelation(const std::vector<double>& xs,
                          const std::vector<double>& ys) {
  if (xs.size() != ys.size() || xs.size() < 2) return 0.0;
  const double mx = Mean(xs), my = Mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx, dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

std::vector<double> AverageRanks(const std::vector<double>& xs) {
  const size_t n = xs.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return xs[a] < xs[b]; });
  std::vector<double> ranks(n, 0.0);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && xs[order[j + 1]] == xs[order[i]]) ++j;
    // Positions i..j (0-based) share the average 1-based rank.
    const double avg =
        (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (size_t t = i; t <= j; ++t) ranks[order[t]] = avg;
    i = j + 1;
  }
  return ranks;
}

double SpearmanCorrelation(const std::vector<double>& xs,
                           const std::vector<double>& ys) {
  if (xs.size() != ys.size() || xs.size() < 2) return 0.0;
  return PearsonCorrelation(AverageRanks(xs), AverageRanks(ys));
}

std::vector<CdfPoint> EmpiricalCdf(std::vector<double> xs, size_t max_points) {
  std::vector<CdfPoint> cdf;
  if (xs.empty()) return cdf;
  std::sort(xs.begin(), xs.end());
  const double n = static_cast<double>(xs.size());
  cdf.reserve(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    // Collapse duplicates to the last occurrence.
    if (i + 1 < xs.size() && xs[i + 1] == xs[i]) continue;
    cdf.push_back({xs[i], static_cast<double>(i + 1) / n});
  }
  if (max_points > 0 && cdf.size() > max_points) {
    std::vector<CdfPoint> out;
    out.reserve(max_points);
    const double step = static_cast<double>(cdf.size() - 1) /
                        static_cast<double>(max_points - 1);
    for (size_t i = 0; i < max_points; ++i) {
      out.push_back(cdf[static_cast<size_t>(std::round(i * step))]);
    }
    return out;
  }
  return cdf;
}

double CdfAt(const std::vector<double>& xs, double threshold) {
  if (xs.empty()) return 0.0;
  size_t count = 0;
  for (double x : xs) {
    if (x <= threshold) ++count;
  }
  return static_cast<double>(count) / static_cast<double>(xs.size());
}

void RunningStat::Add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

}  // namespace savg
