#include "telemetry/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>

namespace corelite::telemetry {

std::string_view metric_kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
  }
  return "unknown";
}

std::size_t histogram_bucket(double v) {
  if (!(v >= 1.0)) return 0;  // < 1, zero, negative and NaN all land in bucket 0
  const double capped = std::min(v, std::ldexp(1.0, kHistogramBuckets - 2));
  const auto u = static_cast<std::uint64_t>(capped);
  return std::min<std::size_t>(std::bit_width(u), kHistogramBuckets - 1);
}

double histogram_bucket_floor(std::size_t i) {
  return i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
}

namespace {

/// One metric's accumulated state.
struct Slot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  double last = 0.0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
};

struct Registry {
  std::mutex mu;
  std::vector<std::string> names;  // index = MetricId
  std::vector<MetricKind> kinds;   // parallel to names
  std::vector<Slot> slots;         // parallel to names
  std::map<std::string, MetricId, std::less<>> by_name;

  static Registry& instance() {
    static Registry r;
    return r;
  }
};

}  // namespace

namespace detail {

void record(MetricId id, double v) {
  Registry& reg = Registry::instance();
  const std::lock_guard<std::mutex> lock{reg.mu};
  Slot& s = reg.slots[id];
  ++s.count;
  s.sum += v;
  s.min = std::min(s.min, v);
  s.max = std::max(s.max, v);
  if (reg.kinds[id] == MetricKind::Gauge) {
    s.last = v;
  } else {
    ++s.buckets[histogram_bucket(v)];
  }
}

}  // namespace detail

void set_enabled(bool on) { detail::g_enabled.store(on, std::memory_order_relaxed); }

MetricId register_metric(std::string_view name, MetricKind kind) {
  Registry& reg = Registry::instance();
  const std::lock_guard<std::mutex> lock{reg.mu};
  if (const auto it = reg.by_name.find(name); it != reg.by_name.end()) {
    return reg.kinds[it->second] == kind ? it->second : kInvalidMetric;
  }
  const auto id = static_cast<MetricId>(reg.names.size());
  reg.names.emplace_back(name);
  reg.kinds.push_back(kind);
  reg.slots.emplace_back();
  reg.by_name.emplace(reg.names.back(), id);
  return id;
}

std::vector<MetricSnapshot> metrics_snapshot() {
  Registry& reg = Registry::instance();
  const std::lock_guard<std::mutex> lock{reg.mu};
  std::vector<MetricSnapshot> out;
  out.reserve(reg.names.size());
  for (std::size_t i = 0; i < reg.names.size(); ++i) {
    MetricSnapshot m;
    m.name = reg.names[i];
    m.kind = reg.kinds[i];
    if (const Slot& s = reg.slots[i]; s.count > 0) {
      m.count = s.count;
      m.sum = s.sum;
      m.min = s.min;
      m.max = s.max;
      m.last = s.last;
      m.buckets = s.buckets;
    }
    out.push_back(std::move(m));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) { return a.name < b.name; });
  return out;
}

void reset_metrics() {
  Registry& reg = Registry::instance();
  const std::lock_guard<std::mutex> lock{reg.mu};
  for (Slot& s : reg.slots) s = Slot{};
}

}  // namespace corelite::telemetry
