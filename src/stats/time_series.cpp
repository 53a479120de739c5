#include "stats/time_series.h"

#include <algorithm>

namespace corelite::stats {

template <class Series>
std::size_t StepSeries<Series>::upper(double t) const {
  std::size_t lo = 0;
  std::size_t n = self().size();
  while (n > 0) {
    const std::size_t half = n / 2;
    if (t < self().time(lo + half)) {
      n = half;
    } else {
      lo += half + 1;
      n -= half + 1;
    }
  }
  return lo;
}

template <class Series>
double StepSeries<Series>::average_over(double t0, double t1) const {
  const Series& s = self();
  if (t1 <= t0 || empty()) return 0.0;
  double integral = 0.0;
  double cur_t = t0;
  double cur_v = value_at(t0);
  // Samples are time-ordered (enforced by add), so jump straight to the
  // first sample inside (t0, t1) instead of scanning from the beginning —
  // windowed queries over long runs were quadratic otherwise.
  for (std::size_t i = upper(t0); i < s.size() && s.time(i) < t1; ++i) {
    integral += cur_v * (s.time(i) - cur_t);
    cur_t = s.time(i);
    cur_v = s.value(i);
  }
  integral += cur_v * (t1 - cur_t);
  return integral / (t1 - t0);
}

template <class Series>
double StepSeries<Series>::min_over(double t0, double t1) const {
  const Series& s = self();
  if (t1 < t0 || empty()) return 0.0;
  // Seed with the value carried into the window (the step function's
  // value at t0, like average_over): a window containing no sample
  // points still has a value across it, not 0.
  double m = value_at(t0);
  for (std::size_t i = upper(t0); i < s.size() && s.time(i) <= t1; ++i) {
    m = std::min(m, s.value(i));
  }
  return m;
}

template <class Series>
double StepSeries<Series>::max_over(double t0, double t1) const {
  const Series& s = self();
  if (t1 < t0 || empty()) return 0.0;
  double m = value_at(t0);
  for (std::size_t i = upper(t0); i < s.size() && s.time(i) <= t1; ++i) {
    m = std::max(m, s.value(i));
  }
  return m;
}

namespace {

/// Heap bytes of blocks whose `wide` fallback may hold kBlockPoints
/// exact copies beside the block.
template <class Block>
std::size_t bytes_with_wide(const detail::BlockArray<Block>& blocks) {
  std::size_t wide = 0;
  for (std::size_t i = 0; i < blocks.size(); i += kBlockPoints) {
    if (blocks.block_of(i).wide) wide += kBlockPoints * sizeof(blocks.block_of(i).wide[0]);
  }
  return blocks.bytes() + wide;
}

}  // namespace

std::size_t RateSeries::bytes() const { return bytes_with_wide(points_); }

std::size_t CountSeries::bytes() const { return bytes_with_wide(counts_); }

template class StepSeries<TimeSeries>;
template class StepSeries<RateSeries>;
template class StepSeries<CountSeries>;

}  // namespace corelite::stats
