// Descriptive statistics and convergence detection helpers shared by
// the benches, tests and tools.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>

#include "stats/time_series.h"

namespace corelite::stats {

struct Summary {
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Descriptive statistics of a sample (percentiles by linear
/// interpolation on the sorted sample).  Empty input -> all zeros.
[[nodiscard]] Summary summarize(std::span<const double> values);

/// Percentile (0..100) of a sample by linear interpolation.
[[nodiscard]] double percentile(std::span<const double> values, double p);

/// Earliest time after which every sliding 2 s average of `series`
/// stays within rel_tol * target + abs_tol of `target` until `t_end`.
/// Returns t_end when the series never settles.  (This is the
/// convergence-time definition used throughout EXPERIMENTS.md.)
template <class Series>
[[nodiscard]] double convergence_time(const StepSeries<Series>& series, double target,
                                      double t_end, double rel_tol = 0.3, double abs_tol = 3.0) {
  double t = t_end;
  while (t > 2.0) {
    const double got = series.average_over(t - 2.0, t);
    if (std::fabs(got - target) > rel_tol * target + abs_tol) break;
    t -= 2.0;
  }
  return t;
}

}  // namespace corelite::stats
