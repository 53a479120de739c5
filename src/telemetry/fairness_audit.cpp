#include "telemetry/fairness_audit.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/hotpath.h"
#include "stats/fairness.h"

namespace corelite::telemetry {

FairnessAuditor::FairnessAuditor(FairnessAuditConfig cfg, const stats::FlowTracker& tracker,
                                 std::vector<double> link_caps_pps, std::vector<FlowInfo> flows,
                                 ActiveFn active)
    : cfg_{cfg},
      tracker_{tracker},
      caps_{std::move(link_caps_pps)},
      flows_{std::move(flows)},
      active_{std::move(active)} {
  alloc_flows_.reserve(flows_.size());
  for (const FlowInfo& f : flows_) {
    sim::fluid::AllocFlow a;
    a.weight = f.weight > 0.0 ? f.weight : 1.0;
    a.links = f.links;
    a.min_rate = f.min_rate;
    alloc_flows_.push_back(std::move(a));
  }
  cursors_.resize(flows_.size());
  if (cfg_.ring_capacity > 0) ring_.reserve(cfg_.ring_capacity);
  report_.config = cfg_;
}

void FairnessAuditor::add_gauge(std::string name, std::function<double()> poll) {
  gauges_.push_back({std::move(name), std::move(poll)});
}

void FairnessAuditor::on_window(sim::SimTime now) {
  const double t1 = now.sec();
  const double t0 = last_t_sec_;
  const double dt = t1 - t0;
  if (dt <= 1e-12) return;
  last_t_sec_ = t1;

  AuditWindow w;
  w.index = window_index_++;
  w.t0_sec = t0;
  w.t1_sec = t1;
  // A fluid jump inside the window stretches it far past the sampler
  // period; the rates below are then dominated by synthesized counters.
  w.spans_jump = dt > 1.5 * cfg_.window.sec();

  const double t_mid = 0.5 * (t0 + t1);
  std::vector<AuditFlowSample> samples(flows_.size());
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const FlowInfo& fi = flows_[i];
    AuditFlowSample& s = samples[i];
    s.id = fi.id;
    s.weight = fi.weight;
    std::uint64_t delivered = 0;
    std::uint64_t sent = 0;
    if (tracker_.has(fi.id)) {
      const auto& fs = tracker_.counters(fi.id);
      delivered = fs.delivered;
      sent = fs.sent;
    }
    FlowCursor& c = cursors_[i];
    s.rate_pps = static_cast<double>(delivered - c.last_delivered) / dt;
    s.sent_pps = static_cast<double>(sent - c.last_sent) / dt;
    c.last_delivered = delivered;
    c.last_sent = sent;
    s.normalized = s.weight > 0.0 ? s.rate_pps / s.weight : s.rate_pps;
    s.active = active_ ? active_(fi.id, t_mid) : true;
    if (active_ && active_(fi.id, t0) != active_(fi.id, t1)) w.boundary = true;
    // The oracle's demand for a flow is what it actually offered this
    // window: a self-throttled flow's fair share is its demand, so it
    // cannot read as starved; an idle flow consumes nothing.
    alloc_flows_[i].demand = s.active ? std::max(s.sent_pps, 0.0) : 0.0;
  }

  const std::vector<double> oracle = sim::fluid::water_fill(caps_, alloc_flows_);
  // Second solve with unbounded demands: the pure weighted max-min
  // share of the active set.  Exceeding it is a violation regardless of
  // what the other flows offered (see the header on the flood blind
  // spot of the demand-capped test).
  for (std::size_t i = 0; i < samples.size(); ++i) {
    alloc_flows_[i].demand = samples[i].active ? 1e15 : 0.0;
  }
  const std::vector<double> fair = sim::fluid::water_fill(caps_, alloc_flows_);
  std::vector<double> normalized_active;
  normalized_active.reserve(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    AuditFlowSample& s = samples[i];
    s.oracle_pps = oracle[i];
    s.fair_share_pps = fair[i];
    s.deviation =
        (s.rate_pps - s.oracle_pps) / std::max(s.oracle_pps, cfg_.rate_floor_pps);
    s.overage =
        (s.rate_pps - s.fair_share_pps) / std::max(s.fair_share_pps, cfg_.rate_floor_pps);
    s.measurable = s.active && (s.rate_pps >= cfg_.rate_floor_pps ||
                                s.oracle_pps >= cfg_.rate_floor_pps);
    if (s.active) {
      ++w.active_flows;
      if (s.sent_pps > 0.0) normalized_active.push_back(s.normalized);
    }
    if (!s.measurable) continue;
    ++w.measurable_flows;
    const double over = std::max(0.0, s.overage);
    const double mag = std::max(std::abs(s.deviation), over);
    if (mag > w.max_abs_deviation) {
      w.max_abs_deviation = mag;
      w.worst_flow = s.id;
      w.worst_deviation = over > std::abs(s.deviation) ? s.overage : s.deviation;
    }
    if (mag > cfg_.band) ++w.violations;
  }
  w.jain = normalized_active.empty() ? 1.0 : stats::jain_index(normalized_active);
  w.violating = w.violations > 0;

  // Per-flow detail, worst deviators first when capped, then back in id
  // order so the recorded set is deterministic and diff-friendly.
  w.flows = std::move(samples);
  if (w.flows.size() > cfg_.max_flows_recorded) {
    std::partial_sort(w.flows.begin(),
                      w.flows.begin() + static_cast<std::ptrdiff_t>(cfg_.max_flows_recorded),
                      w.flows.end(), [](const AuditFlowSample& a, const AuditFlowSample& b) {
                        const double ma = std::max(std::abs(a.deviation), std::max(0.0, a.overage));
                        const double mb = std::max(std::abs(b.deviation), std::max(0.0, b.overage));
                        if (ma != mb) return ma > mb;
                        return a.id < b.id;
                      });
    w.flows.resize(cfg_.max_flows_recorded);
    std::sort(w.flows.begin(), w.flows.end(),
              [](const AuditFlowSample& a, const AuditFlowSample& b) { return a.id < b.id; });
  }
  w.gauges.reserve(gauges_.size());
  for (const Gauge_& g : gauges_) w.gauges.push_back(g.poll ? g.poll() : 0.0);

  // Live counts (always on) and registry gauges (no-ops when telemetry is off).
  sim::HotPathCounters& counters = sim::hotpath_counters();
  ++counters.audit_windows;
  counters.audit_violations += w.violations;
  m_jain_.set(w.jain);
  m_max_dev_.set(w.max_abs_deviation);

  // Watchdog: consecutive fully-measured violating windows.  Boundary
  // windows are transition noise, grace windows are convergence ramp —
  // both reset the count rather than pausing it, so a trip always means
  // a sustained steady-state violation.
  if (w.boundary || !w.violating || w.index < static_cast<std::uint64_t>(cfg_.grace_windows)) {
    consecutive_violations_ = 0;
  } else {
    ++consecutive_violations_;
  }

  // Flight recorder ring (insert before the trip check so the dump
  // includes the window that tripped it).
  if (cfg_.ring_capacity > 0) {
    if (ring_.size() < cfg_.ring_capacity) {
      ring_.push_back(w);
    } else {
      ring_[ring_next_] = w;
    }
    ring_next_ = (ring_next_ + 1) % cfg_.ring_capacity;
  }

  if (cfg_.watchdog_enabled && !report_.watchdog_fired &&
      consecutive_violations_ >= cfg_.watchdog_windows) {
    report_.watchdog_fired = true;
    report_.watchdog_t_sec = t1;
    report_.watchdog_window = w.index;
    report_.flight_recorder.reserve(ring_.size());
    const std::size_t n = ring_.size();
    const std::size_t start = n < cfg_.ring_capacity ? 0 : ring_next_;
    for (std::size_t k = 0; k < n; ++k) {
      report_.flight_recorder.push_back(ring_[(start + k) % n]);
    }
    ++sim::hotpath_counters().audit_watchdog_fired;
  }

  if (!normalized_active.empty()) report_.min_jain = std::min(report_.min_jain, w.jain);
  if (w.measurable_flows > 0 && w.max_abs_deviation > std::abs(report_.worst_deviation)) {
    report_.worst_deviation = w.worst_deviation;
    report_.worst_flow = w.worst_flow;
    report_.worst_t_sec = t1;
  }
  report_.windows.push_back(std::move(w));
}

FairnessAuditReport FairnessAuditor::take_report() {
  report_.gauge_names.clear();
  report_.gauge_names.reserve(gauges_.size());
  for (const Gauge_& g : gauges_) report_.gauge_names.push_back(g.name);
  return std::move(report_);
}

}  // namespace corelite::telemetry
