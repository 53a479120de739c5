// The fairness auditor: per-window oracle-deviation telemetry.
//
// The paper's claim is a per-flow property — every flow's delivered
// rate tracks its weighted fair share — so the auditor makes that the
// measured signal instead of a post-hoc cross-check.  A periodic
// sampler (wired by the scenario runners on the opt-in audit path)
// calls on_window(); each window the auditor reads per-flow
// delivered/sent counter deltas from the FlowTracker, solves the
// demand-capped water-filling oracle (src/sim/fluid/allocator.h) for
// the flows active in the window, and records every flow's normalized
// rate, oracle share and signed relative deviation plus the window's
// Jain index.
//
// Demand capping matters: the oracle's share for a flow that chose to
// send less than its fair share is its demand, so self-throttled flows
// (staggered starts, churn gaps) don't read as "unfair".  Demand
// capping alone has a blind spot, though: an unresponsive flood beats
// adaptive senders down until their *offered* load is tiny, at which
// point the capped oracle blesses the flood's grab as spare capacity.
// The auditor therefore also solves the UNcapped weighted max-min
// share and flags any flow whose rate exceeds it by more than the band
// (AuditFlowSample::overage) — a flow can only hold more than its pure
// weighted share by crowding someone else out.  A droptail queue
// splitting capacity equally across unequal weights trips the capped
// test; a flood trips the overage test even after its victims give up.
//
// The watchdog trips after `watchdog_windows` CONSECUTIVE violating
// windows (a window violates when any measurable flow's |deviation|
// exceeds `band`).  Windows where the active set changed mid-window are
// transition noise and reset the count, as do the first `grace_windows`
// while the control loops converge.  On the first trip the ring buffer
// of the last `ring_capacity` fully-detailed windows — per-flow state
// plus every registered engine gauge (queue occupancies, CSFQ α) — is
// frozen into the report as the flight-recorder dump; auditing
// continues so the report still covers the whole run.
//
// Determinism: the audit sampler adds simulation events, so audit-on
// digests differ from audit-off — deterministically, and invariantly
// across --jobs (the audit rides run 0 of a sweep only).  The audit is
// therefore opt-in separately from --telemetry, which must keep digests
// bit-identical.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/types.h"
#include "sim/fluid/allocator.h"
#include "sim/units.h"
#include "stats/flow_tracker.h"
#include "telemetry/metrics.h"

namespace corelite::telemetry {

struct FairnessAuditConfig {
  bool enabled = false;
  /// Window length.  Shorter than the fluid detector's 25.6 s — the
  /// auditor integrates one or two control-loop oscillation periods,
  /// not a certification-grade mean.
  sim::TimeDelta window = sim::TimeDelta::seconds(6.4);
  /// Relative deviation band: a measurable flow with |deviation| beyond
  /// this makes its window a violation.
  double band = 0.40;
  /// Consecutive violating windows before the watchdog fires.
  int watchdog_windows = 4;
  /// Startup windows exempt from the watchdog (slow-start / LIMD ramp).
  int grace_windows = 3;
  /// Flows whose delivered AND oracle rates are below this (pkt/s) are
  /// too sparse to judge per-window; they are recorded but not counted.
  double rate_floor_pps = 5.0;
  /// Flight-recorder depth (windows kept in the ring).
  std::size_t ring_capacity = 32;
  /// Per-flow detail cap per recorded window; beyond it only the worst
  /// deviators are kept (summary stats still cover every flow).
  std::size_t max_flows_recorded = 64;
  /// Allow disarming the watchdog while keeping the deviation series
  /// (used when auditing scenarios that are SUPPOSED to be unfair).
  bool watchdog_enabled = true;
};

/// One flow's measurements for one window.
struct AuditFlowSample {
  net::FlowId id = net::kInvalidFlow;
  double weight = 1.0;
  double rate_pps = 0.0;        ///< delivered delta / window
  double sent_pps = 0.0;        ///< sent delta / window (the oracle's demand)
  double normalized = 0.0;      ///< rate / weight
  double oracle_pps = 0.0;      ///< demand-capped water-filling share
  double fair_share_pps = 0.0;  ///< UNcapped weighted max-min share
  double deviation = 0.0;       ///< (rate - oracle) / max(oracle, floor)
  /// (rate - fair_share) / max(fair_share, floor): how far the flow
  /// exceeds the share pure weighted max-min would give it.  The
  /// demand-capped deviation above excuses flows whose *senders* backed
  /// off — which is exactly what an unresponsive flood forces adaptive
  /// flows to do, laundering its grab as "spare capacity".  A positive
  /// overage beyond the band is a violation on its own.
  double overage = 0.0;
  bool active = false;          ///< active at the window midpoint
  bool measurable = false;      ///< active and above the rate floor
};

struct AuditWindow {
  std::uint64_t index = 0;
  double t0_sec = 0.0;
  double t1_sec = 0.0;
  double jain = 1.0;            ///< over active flows' normalized rates
  double max_abs_deviation = 0.0;
  net::FlowId worst_flow = net::kInvalidFlow;
  double worst_deviation = 0.0;  ///< signed, the max-|.| one
  std::size_t active_flows = 0;
  std::size_t measurable_flows = 0;
  std::size_t violations = 0;    ///< measurable flows out of band
  bool boundary = false;         ///< active set changed within the window
  bool spans_jump = false;       ///< window stretched by a fluid jump
  bool violating = false;
  std::vector<AuditFlowSample> flows;  ///< capped at max_flows_recorded
  std::vector<double> gauges;          ///< parallel to report gauge_names
};

struct FairnessAuditReport {
  FairnessAuditConfig config;
  std::vector<std::string> gauge_names;
  std::vector<AuditWindow> windows;
  bool watchdog_fired = false;
  double watchdog_t_sec = 0.0;
  std::uint64_t watchdog_window = 0;
  /// Ring contents frozen at the first trip, oldest first.
  std::vector<AuditWindow> flight_recorder;
  // Whole-run aggregates.
  double min_jain = 1.0;
  double worst_deviation = 0.0;  ///< signed, max-|.| over measurable windows
  net::FlowId worst_flow = net::kInvalidFlow;
  double worst_t_sec = 0.0;
};

class FairnessAuditor {
 public:
  struct FlowInfo {
    net::FlowId id = net::kInvalidFlow;
    double weight = 1.0;
    std::vector<std::uint32_t> links;  ///< indices into the capacity vector
    double min_rate = 0.0;             ///< minimum-rate contract, pkt/s
  };
  /// Is flow `id` active (inside an activity window) at time `t_sec`?
  using ActiveFn = std::function<bool(net::FlowId, double)>;

  FairnessAuditor(FairnessAuditConfig cfg, const stats::FlowTracker& tracker,
                  std::vector<double> link_caps_pps, std::vector<FlowInfo> flows,
                  ActiveFn active);

  FairnessAuditor(const FairnessAuditor&) = delete;
  FairnessAuditor& operator=(const FairnessAuditor&) = delete;

  /// Register an engine gauge sampled into every recorded window (queue
  /// occupancy, CSFQ α, ...).  Call before the run starts.
  void add_gauge(std::string name, std::function<double()> poll);

  /// Close the window ending at `now`.  Wire as a periodic simulator
  /// callback with period = config.window.
  void on_window(sim::SimTime now);

  [[nodiscard]] bool watchdog_fired() const { return report_.watchdog_fired; }
  [[nodiscard]] std::uint64_t windows_audited() const { return report_.windows.size(); }

  /// Move the accumulated report out (call after the run).
  [[nodiscard]] FairnessAuditReport take_report();

 private:
  struct Gauge_ {
    std::string name;
    std::function<double()> poll;
  };
  struct FlowCursor {
    std::uint64_t last_delivered = 0;
    std::uint64_t last_sent = 0;
  };

  FairnessAuditConfig cfg_;
  const stats::FlowTracker& tracker_;
  std::vector<double> caps_;
  std::vector<FlowInfo> flows_;
  std::vector<sim::fluid::AllocFlow> alloc_flows_;  ///< parallel to flows_
  ActiveFn active_;
  std::vector<Gauge_> gauges_;
  std::vector<FlowCursor> cursors_;  ///< parallel to flows_

  double last_t_sec_ = 0.0;
  std::uint64_t window_index_ = 0;
  int consecutive_violations_ = 0;
  std::vector<AuditWindow> ring_;  ///< flight recorder, ring of cfg_.ring_capacity
  std::size_t ring_next_ = 0;

  FairnessAuditReport report_;

  // Live registry gauges (no-ops unless telemetry::set_enabled(true));
  // the window, violation and watchdog counts go to sim::HotPathCounters.
  Gauge m_jain_{"audit.jain"};
  Gauge m_max_dev_{"audit.max_abs_deviation"};
};

}  // namespace corelite::telemetry
