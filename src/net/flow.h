// Flow descriptions.
//
// A "flow" in Corelite is an edge-to-edge aggregate (paper §2): it
// enters the network cloud at an ingress edge router, exits at an
// egress node, and carries a rate weight that selects its rate class.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "net/types.h"
#include "sim/units.h"

namespace corelite::net {

/// Half-open activity window [start, stop).
struct ActiveInterval {
  sim::SimTime start;
  sim::SimTime stop = sim::SimTime::infinite();
};

/// True iff the windows are non-empty (start < stop), time-ordered and
/// pairwise disjoint — the contract every activity list must satisfy.
/// Touching windows ([0,5),[5,9)) are allowed; callers that want one
/// continuous window should merge them, but they are not ambiguous.
[[nodiscard]] inline bool valid_activity_windows(const std::vector<ActiveInterval>& windows) {
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (!(windows[i].start < windows[i].stop)) return false;
    if (std::isnan(windows[i].start.sec())) return false;
    if (i > 0 && windows[i].start < windows[i - 1].stop) return false;
  }
  return true;
}

/// A read-only copy of a window list for per-flow records that live for
/// a whole run: a single window (a generated population has about one
/// per flow) is held inline, and only a longer list takes one heap
/// array.  24 bytes, the size of an empty std::vector.
class ActivityWindows {
 public:
  explicit ActivityWindows(std::span<const ActiveInterval> windows)
      : size_{static_cast<std::uint32_t>(windows.size())} {
    if (size_ > 1) {
      many_ = new ActiveInterval[size_];
      std::copy(windows.begin(), windows.end(), many_);
    } else if (size_ == 1) {
      one_ = windows.front();
    }
  }
  ~ActivityWindows() {
    if (size_ > 1) delete[] many_;
  }
  ActivityWindows(const ActivityWindows&) = delete;
  ActivityWindows& operator=(const ActivityWindows&) = delete;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const ActiveInterval& operator[](std::size_t i) const { return data()[i]; }

 private:
  [[nodiscard]] const ActiveInterval* data() const { return size_ > 1 ? many_ : &one_; }

  union {
    ActiveInterval one_{};
    ActiveInterval* many_;
  };
  std::uint32_t size_;
};

struct FlowSpec {
  FlowId id = kInvalidFlow;
  NodeId ingress = kInvalidNode;  ///< ingress edge router
  NodeId egress = kInvalidNode;   ///< egress node (edge router / sink)
  double weight = 1.0;            ///< rate weight w(f) > 0

  /// Disjoint, time-ordered activity windows.  A flow with several
  /// windows models the stop/restart churn of the paper's §4.3 scenario;
  /// churn-generated populations carry hundreds.  Must satisfy
  /// valid_activity_windows() — see valid().
  std::vector<ActiveInterval> active{{sim::SimTime::zero(), sim::SimTime::infinite()}};

  /// Optional minimum rate contract in packets/s (Corelite extension:
  /// the edge never throttles the flow below this floor).
  double min_rate_pps = 0.0;

  /// Unresponsive-flood injection: when > 0, the source ignores the
  /// adaptation protocol entirely and blasts at this fixed rate
  /// (packets/s).  The edge infrastructure still does its part — CSFQ
  /// labels the flood's true arrival rate, Corelite's shaper is
  /// bypassed the way a non-compliant source bypasses it — so this
  /// models the attack traffic the fairness watchdog must catch, not a
  /// broken edge.
  double flood_pps = 0.0;

  /// Construction-time validation: a set id (kInvalidFlow is the
  /// unset default and the edge index's empty-slot key), finite positive
  /// weight, non-negative min rate and flood rate, well-formed activity
  /// windows.  Edge routers assert this on add_flow; generators and
  /// script parsers reject specs failing it.
  [[nodiscard]] bool valid() const {
    return id != kInvalidFlow && std::isfinite(weight) && weight > 0.0 &&
           std::isfinite(min_rate_pps) && min_rate_pps >= 0.0 && std::isfinite(flood_pps) &&
           flood_pps >= 0.0 && valid_activity_windows(active);
  }

  /// O(log W) over the sorted disjoint windows: locate the last window
  /// starting at or before t and test its stop.
  [[nodiscard]] bool active_at(sim::SimTime t) const {
    auto it = std::upper_bound(active.begin(), active.end(), t,
                               [](sim::SimTime v, const ActiveInterval& iv) {
                                 return v < iv.start;
                               });
    if (it == active.begin()) return false;
    --it;
    return t < it->stop;
  }
};

}  // namespace corelite::net
