#include "qos/edge_router.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace corelite::qos {

CoreliteEdgeRouter::CoreliteEdgeRouter(net::Network& network, net::NodeId node,
                                       const CoreliteConfig& config, stats::FlowTracker* tracker)
    : net_{network}, node_{node}, cfg_{config}, tracker_{tracker} {
  net_.node(node_).set_local_sink([this](net::Packet&& p) { handle_local(std::move(p)); });
  // Random phase: edge routers' adaptation epochs are mutually
  // desynchronized, as independent routers' timers are in practice.
  const auto phase =
      sim::TimeDelta::seconds(net_.local_sim(node_).rng().uniform(0.0, cfg_.edge_epoch.sec()));
  epoch_timer_ = net_.local_sim(node_).every(cfg_.edge_epoch, [this] { on_epoch(); }, phase);
}

CoreliteEdgeRouter::~CoreliteEdgeRouter() { epoch_timer_.cancel(); }

void CoreliteEdgeRouter::admit(const net::FlowSpec& spec, std::unique_ptr<Transit> transit) {
  assert(spec.ingress == node_ && "flow must enter the network at this edge router");
  assert(spec.valid());
  if (tracker_ != nullptr) tracker_->declare_flow(spec.id, spec.weight);
  std::uint32_t extra = EdgeFlow::kNoExtra;
  if (spec.min_rate_pps > 0.0 || spec.flood_pps > 0.0 || transit != nullptr ||
      cfg_.pacing == PacingMode::OnOff) {
    extra = static_cast<std::uint32_t>(extras_.size());
    extras_.push_back({spec.min_rate_pps, spec.flood_pps, {}, std::move(transit)});
  }
  flows_.add(spec, cfg_, extra);
}

void CoreliteEdgeRouter::add_flow(const net::FlowSpec& spec) { admit(spec, nullptr); }

void CoreliteEdgeRouter::add_transit_flow(const net::FlowSpec& spec) {
  if (!transit_hook_installed_) {
    transit_hook_installed_ = true;
    net_.node(node_).set_transit_hook(
        [this](net::Packet& p) { return intercept_transit(p); });
  }
  admit(spec, std::make_unique<Transit>(TokenBucket{std::max(cfg_.adapt.initial_rate_pps, 1.0),
                                                    std::max(1.0, cfg_.edge_burst_tokens),
                                                    net_.local_sim(node_).now()}));
}

bool CoreliteEdgeRouter::intercept_transit(net::Packet& p) {
  FlowState* fsp = flows_.lookup(p.flow);
  if (fsp == nullptr || transit(*fsp) == nullptr) return false;
  if (p.kind == net::PacketKind::Marker) {
    // Cloud boundary: markers are edge-to-edge signals of the UPSTREAM
    // cloud; absorb them here.  This edge injects its own markers for
    // the flow's journey through THIS cloud.
    return true;
  }
  if (p.kind != net::PacketKind::Data) return false;
  FlowState& fs = *fsp;
  Transit& tr = *transit(fs);
  if (!fs.active() || tr.queue.size() >= cfg_.edge_queue_capacity) {
    // Edge policing drop: the ONLY place Corelite loses packets.
    ++transit_drops_;
    if (tracker_ != nullptr) tracker_->on_dropped(p.flow);
    return true;  // consumed (dropped)
  }
  tr.queue.push_back(std::move(p));
  if (!tr.draining) {
    tr.draining = true;
    drain_transit(fs);
  }
  return true;
}

void CoreliteEdgeRouter::drain_transit(FlowState& fs) {
  Transit& tr = *transit(fs);
  if (!fs.active() || tr.queue.empty()) {
    tr.draining = false;
    return;
  }
  const sim::SimTime now = net_.local_sim(node_).now();
  const double rate = std::max(fs.ctrl.rate_pps(), 1e-3);
  tr.bucket.set_rate(rate, now);

  // Drain back-to-back while the bucket holds tokens (burst tolerance);
  // the long-run rate stays b_g.
  while (!tr.queue.empty() && tr.bucket.try_consume(1.0, now)) {
    net::Packet p = std::move(tr.queue.front());
    tr.queue.pop_front();
    if (tracker_ != nullptr) tracker_->on_sent(fs.id);
    // Forward directly via the FIB: re-injecting at the node would loop
    // straight back into the transit hook.
    net::Link* out = net_.node(node_).next_hop(p.dst);
    if (out != nullptr) out->send(std::move(p));
    count_marker_credit_and_maybe_mark(fs);
  }

  if (tr.queue.empty()) {
    tr.draining = false;
    return;
  }
  net_.local_sim(node_).after_detached(
      tr.bucket.time_until(1.0, now),
      [this, &fs, gen = fs.emit_gen] {
        if (gen == fs.emit_gen) drain_transit(fs);
      });
}

void CoreliteEdgeRouter::start_flow(FlowState& fs) {
  if (!flows_.activate(fs)) return;
  fs.marker_credit = 0.0;
  fs.feedback_per_core.clear();
  fs.ctrl.reset(cfg_.adapt, net_.local_sim(node_).now());
  if (cfg_.pacing == PacingMode::OnOff) {
    extras_[fs.extra].pacing_anchor = net_.local_sim(node_).now();
  }
  if (tracker_ != nullptr) {
    // Rate samples live on the experiment-time axis (identical to the
    // engine clock whenever fluid fast-forward is off).
    tracker_->record_rate(fs.id, net_.local_sim(node_).exp_now(), fs.ctrl.rate_pps());
  }
  if (Transit* t = transit(fs); t != nullptr) {
    Transit& tr = *t;
    // Fresh admission: no banked burst credit from the idle period.
    tr.bucket.clear(net_.local_sim(node_).now());
    if (!tr.queue.empty() && !tr.draining) {
      tr.draining = true;
      drain_transit(fs);
    }
  } else {
    emit_packet(fs);
  }
}

void CoreliteEdgeRouter::stop_flow(FlowState& fs) {
  if (!flows_.deactivate(fs)) return;  // also orphans in-flight emission/drain events
  if (Transit* t = transit(fs); t != nullptr) {
    t->draining = false;
    t->queue.clear();
  }
  fs.feedback_per_core.clear();
  if (tracker_ != nullptr) tracker_->record_rate(fs.id, net_.local_sim(node_).exp_now(), 0.0);
}

void CoreliteEdgeRouter::emit_packet(FlowState& fs) {
  if (!fs.active()) return;

  net::Packet p;
  p.uid = net_.next_packet_uid(node_);
  p.kind = net::PacketKind::Data;
  p.flow = fs.id;
  p.src = node_;
  p.dst = fs.egress;
  p.size = cfg_.packet_size;
  p.created = net_.local_sim(node_).now();
  if (tracker_ != nullptr) tracker_->on_sent(fs.id);
  net_.inject(node_, std::move(p));

  // An unresponsive flood bypasses the control protocol: no markers (a
  // non-compliant source doesn't speak it) and a fixed emission rate
  // the feedback loop never touches.
  const double flood = flood_pps(fs);
  if (flood <= 0.0) count_marker_credit_and_maybe_mark(fs);

  const double rate = flood > 0.0 ? flood : std::max(fs.ctrl.rate_pps(), 1e-3);
  net_.local_sim(node_).after_detached(next_emission_gap(fs, rate),
                                       sim::hinted(&fs, [this, &fs, gen = fs.emit_gen] {
                                         if (gen == fs.emit_gen) emit_packet(fs);
                                       }));
}

void CoreliteEdgeRouter::count_marker_credit_and_maybe_mark(FlowState& fs) {
  // Markers reflect the out-of-profile rate: a flow at or below its
  // minimum-rate contract injects none (pure in-profile traffic is
  // never throttled, so advertising it to the cores would only skew
  // their running average and shield genuinely over-share flows).
  const double rate_now = fs.ctrl.rate_pps();
  if (rate_now <= 0.0) return;
  fs.marker_credit += out_of_profile_pps(fs) / rate_now;
  if (fs.marker_credit >= static_cast<double>(fs.marker_spacing)) {
    fs.marker_credit -= static_cast<double>(fs.marker_spacing);
    inject_marker(fs);
  }
}

sim::TimeDelta CoreliteEdgeRouter::next_emission_gap(FlowState& fs, double rate_pps) {
  const double mean_gap = 1.0 / rate_pps;
  switch (cfg_.pacing) {
    case PacingMode::Poisson:
      return sim::TimeDelta::seconds(net_.local_sim(node_).rng().exponential(mean_gap));
    case PacingMode::OnOff: {
      // Bursts at peak rate so the cycle average stays at rate_pps.
      const double burst = cfg_.on_off_burst.sec();
      const double idle = cfg_.on_off_idle.sec();
      const double cycle = burst + idle;
      const double peak_gap = mean_gap * burst / cycle;
      const double now = net_.local_sim(node_).now().sec();
      const double next = now + peak_gap;
      const double anchor = extras_[fs.extra].pacing_anchor.sec();
      const double pos = std::fmod(next - anchor, cycle);
      if (pos <= burst) return sim::TimeDelta::seconds(next - now);
      // The next slot falls into the idle window: defer to the start of
      // the following burst.
      const double cycles_done = std::floor((next - anchor) / cycle);
      const double burst_start = anchor + (cycles_done + 1.0) * cycle;
      return sim::TimeDelta::seconds(burst_start - now);
    }
    case PacingMode::Paced:
      break;
  }
  return sim::TimeDelta::seconds(mean_gap);
}

void CoreliteEdgeRouter::inject_marker(FlowState& fs) {
  net::Packet m;
  m.uid = net_.next_packet_uid(node_);
  m.kind = net::PacketKind::Marker;
  m.flow = fs.id;
  m.src = node_;
  m.dst = fs.egress;  // markers follow the flow's path
  m.size = sim::DataSize::zero();
  m.marker = net::MarkerInfo{node_, fs.id, out_of_profile_pps(fs) / fs.weight};
  m.created = net_.local_sim(node_).now();
  ++markers_injected_;
  // Forward via the FIB directly: injecting at the node would run the
  // transit hook, which absorbs markers of transit flows (they are
  // upstream-cloud signals) — including the ones this edge just made.
  net::Link* out = net_.node(node_).next_hop(m.dst);
  if (out != nullptr) {
    out->send(std::move(m));
  } else {
    net_.inject(node_, std::move(m));
  }
}

void CoreliteEdgeRouter::on_epoch() {
  const sim::SimTime now = net_.local_sim(node_).now();
  const sim::SimTime exp_now = net_.local_sim(node_).exp_now();
  flows_.for_each_active([&](FlowState& fs) {
    if (const double flood = flood_pps(fs); flood > 0.0) {
      // Unresponsive source: feedback is discarded, the rate series
      // records the flood rate it actually emits at.
      fs.feedback_per_core.clear();
      if (tracker_ != nullptr) tracker_->record_rate(fs.id, exp_now, flood);
      return;
    }
    // React to the bottleneck: max over core routers, not the sum
    // (paper §2.2 step 3).
    int m = 0;
    for (const auto& [core, count] : fs.feedback_per_core) m = std::max(m, count);
    fs.feedback_per_core.clear();
    fs.ctrl.on_epoch(cfg_.adapt, m, now);
    if (tracker_ != nullptr) tracker_->record_rate(fs.id, exp_now, fs.ctrl.rate_pps());
  });
}

void CoreliteEdgeRouter::handle_local(net::Packet&& p) {
  switch (p.kind) {
    case net::PacketKind::Feedback: {
      ++feedback_received_;
      FlowState* fs = flows_.lookup(p.marker.flow);
      if (fs != nullptr && fs->active()) {
        auto it = std::find_if(fs->feedback_per_core.begin(), fs->feedback_per_core.end(),
                               [&](const auto& e) { return e.first == p.feedback_origin; });
        if (it == fs->feedback_per_core.end()) {
          fs->feedback_per_core.emplace_back(p.feedback_origin, 1);
        } else {
          ++it->second;
        }
      }
      if (tracker_ != nullptr) tracker_->on_feedback(p.marker.flow);
      break;
    }
    case net::PacketKind::Data:
      // This node is the egress for some flow: count the delivery.
      ++data_delivered_;
      if (tracker_ != nullptr) tracker_->on_delivered(p.flow);
      break;
    case net::PacketKind::Marker:
      break;  // markers reaching the egress edge are simply absorbed
    case net::PacketKind::LossNotice:
      break;  // not used by Corelite (no losses by design)
    case net::PacketKind::Ack:
      break;  // transport ACKs are host-to-host; nothing to do here
  }
}

double CoreliteEdgeRouter::current_rate_pps(net::FlowId flow) const {
  const FlowState* fs = flows_.lookup(flow);
  if (fs == nullptr || !fs->active()) return 0.0;
  return fs->ctrl.rate_pps();
}

}  // namespace corelite::qos
