#include "stats/fairness.h"

#include <cassert>
#include <vector>

namespace corelite::stats {

double jain_index(std::span<const double> normalized) {
  if (normalized.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double x : normalized) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;
  const auto n = static_cast<double>(normalized.size());
  return (sum * sum) / (n * sum_sq);
}

double jain_index(std::span<const double> rates, std::span<const double> weights) {
  assert(rates.size() == weights.size());
  std::vector<double> normalized(rates.size());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    assert(weights[i] > 0.0);
    normalized[i] = rates[i] / weights[i];
  }
  return jain_index(normalized);
}

}  // namespace corelite::stats
