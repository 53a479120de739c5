// Process-wide metrics registry: named gauges and log-bucketed
// histograms.
//
// Counts do not live here: every counter is a field of the always-on
// sim::HotPathCounters block.  The registry holds the sampled values of
// the opt-in, serial-only instruments — the fairness auditor's
// per-window gauges and the trace collector's queue histograms.
//
// Components register a metric once (by name, under a mutex) and keep
// the returned handle.  Telemetry is OFF by default: a disabled handle
// bump is a single relaxed atomic load and a predicted branch, so
// instrumented code can stay compiled into release builds.  An enabled
// bump folds the value straight into the process aggregate under the
// registry mutex: the instruments that record run on one thread per
// run (never on LP workers), so the lock is uncontended, and there is
// no per-thread block to flush — a sweep worker's values are visible as
// soon as they are recorded.  Aggregation is commutative (sums,
// min/max, bucket adds) except a gauge's `last` value.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace corelite::telemetry {

enum class MetricKind : std::uint8_t { Gauge, Histogram };

[[nodiscard]] std::string_view metric_kind_name(MetricKind k);

using MetricId = std::uint32_t;
inline constexpr MetricId kInvalidMetric = 0xffffffffu;

/// Histogram buckets are powers of two: bucket 0 holds values < 1,
/// bucket i (i >= 1) holds values in [2^(i-1), 2^i).
inline constexpr std::size_t kHistogramBuckets = 65;

namespace detail {
inline std::atomic<bool> g_enabled{false};
/// Out-of-line slow path: fold `v` into the aggregate for `id`.
void record(MetricId id, double v);
}  // namespace detail

/// Master switch.  Off by default so experiment binaries pay nothing;
/// set before the run starts (the flag is read relaxed on hot paths).
void set_enabled(bool on);
[[nodiscard]] inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Aggregated view of one metric.
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::Gauge;
  std::uint64_t count = 0;  ///< samples recorded
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double last = 0.0;  ///< gauges only; last recorded value
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Register (or look up) a metric.  Idempotent by name; registering an
/// existing name with a different kind returns kInvalidMetric.
[[nodiscard]] MetricId register_metric(std::string_view name, MetricKind kind);

/// Every registered metric, sorted by name.  Metrics that were never
/// recorded still appear with count 0.
[[nodiscard]] std::vector<MetricSnapshot> metrics_snapshot();

/// Zero every metric (registrations — names and ids — survive).  Tests
/// and benchmarks call this between measured sections.
void reset_metrics();

/// Histogram bucket index for a value (see kHistogramBuckets).
[[nodiscard]] std::size_t histogram_bucket(double v);

/// Lower bound of bucket `i` (0 for bucket 0).
[[nodiscard]] double histogram_bucket_floor(std::size_t i);

// --------------------------------------------------------------------------
// Cached handles.  Construct once (registry lookup under a mutex), bump
// freely: a disabled bump is one relaxed load + branch.

class Gauge {
 public:
  Gauge() = default;
  explicit Gauge(std::string_view name) : id_{register_metric(name, MetricKind::Gauge)} {}
  void set(double v) const {
    if (enabled() && id_ != kInvalidMetric) detail::record(id_, v);
  }
  [[nodiscard]] MetricId id() const { return id_; }

 private:
  MetricId id_ = kInvalidMetric;
};

class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(std::string_view name)
      : id_{register_metric(name, MetricKind::Histogram)} {}
  void observe(double v) const {
    if (enabled() && id_ != kInvalidMetric) detail::record(id_, v);
  }
  [[nodiscard]] MetricId id() const { return id_; }

 private:
  MetricId id_ = kInvalidMetric;
};

}  // namespace corelite::telemetry
