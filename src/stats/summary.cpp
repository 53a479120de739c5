#include "stats/summary.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace corelite::stats {

double percentile(std::span<const double> values, double p) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Summary summarize(std::span<const double> values) {
  Summary s;
  if (values.empty()) return s;
  s.n = values.size();
  double sum = 0.0;
  s.min = values[0];
  s.max = values[0];
  for (double v : values) {
    sum += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.mean = sum / static_cast<double>(s.n);
  double var = 0.0;
  for (double v : values) var += (v - s.mean) * (v - s.mean);
  s.stddev = std::sqrt(var / static_cast<double>(s.n));
  s.p50 = percentile(values, 50.0);
  s.p90 = percentile(values, 90.0);
  s.p99 = percentile(values, 99.0);
  return s;
}

}  // namespace corelite::stats
