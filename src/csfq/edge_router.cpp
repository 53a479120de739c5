#include "csfq/edge_router.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace corelite::csfq {

CsfqEdgeRouter::CsfqEdgeRouter(net::Network& network, net::NodeId node, const CsfqConfig& config,
                               stats::FlowTracker* tracker)
    : net_{network}, node_{node}, cfg_{config}, tracker_{tracker} {
  net_.node(node_).set_local_sink([this](net::Packet&& p) { handle_local(std::move(p)); });
  const auto phase =
      sim::TimeDelta::seconds(net_.local_sim(node_).rng().uniform(0.0, cfg_.edge_epoch.sec()));
  epoch_timer_ = net_.local_sim(node_).every(cfg_.edge_epoch, [this] { on_epoch(); }, phase);
}

CsfqEdgeRouter::~CsfqEdgeRouter() { epoch_timer_.cancel(); }

void CsfqEdgeRouter::add_flow(const net::FlowSpec& spec) {
  assert(spec.ingress == node_);
  assert(spec.valid());
  if (tracker_ != nullptr) tracker_->declare_flow(spec.id, spec.weight);
  std::uint32_t extra = qos::EdgeFlow::kNoExtra;
  if (spec.flood_pps > 0.0) {
    extra = static_cast<std::uint32_t>(flood_pps_.size());
    flood_pps_.push_back(spec.flood_pps);
  }
  flows_.add(spec, cfg_, extra);
}

void CsfqEdgeRouter::start_flow(FlowState& fs) {
  if (!flows_.activate(fs)) return;
  fs.losses_this_epoch = 0;
  fs.estimator.reset();
  fs.ctrl.reset(cfg_.adapt, net_.local_sim(node_).now());
  if (tracker_ != nullptr) {
    // Rate samples live on the experiment-time axis (identical to the
    // engine clock whenever fluid fast-forward is off).
    tracker_->record_rate(fs.id, net_.local_sim(node_).exp_now(), fs.ctrl.rate_pps());
  }
  emit_packet(fs);
}

void CsfqEdgeRouter::stop_flow(FlowState& fs) {
  if (!flows_.deactivate(fs)) return;  // also orphans the in-flight emission event
  fs.losses_this_epoch = 0;
  if (tracker_ != nullptr) tracker_->record_rate(fs.id, net_.local_sim(node_).exp_now(), 0.0);
}

void CsfqEdgeRouter::emit_packet(FlowState& fs) {
  if (!fs.active()) return;

  const sim::SimTime now = net_.local_sim(node_).now();
  const double estimate = fs.estimator.on_arrival(1.0, now);

  net::Packet p;
  p.uid = net_.next_packet_uid(node_);
  p.kind = net::PacketKind::Data;
  p.flow = fs.id;
  p.src = node_;
  p.dst = fs.egress;
  p.size = cfg_.packet_size;
  p.label = estimate / fs.weight;  // normalized rate label
  p.created = now;
  if (tracker_ != nullptr) tracker_->on_sent(fs.id);
  net_.inject(node_, std::move(p));

  // An unresponsive flood paces at its fixed rate regardless of the
  // controller; the label above still carries its true estimated rate,
  // so CSFQ cores see exactly what the protocol promises them.
  const double flood = flood_pps(fs);
  const double rate = flood > 0.0 ? flood : std::max(fs.ctrl.rate_pps(), 1e-3);
  net_.local_sim(node_).after_detached(sim::TimeDelta::seconds(1.0 / rate),
                                       sim::hinted(&fs, [this, &fs, gen = fs.emit_gen] {
                                         if (gen == fs.emit_gen) emit_packet(fs);
                                       }));
}

void CsfqEdgeRouter::on_epoch() {
  const sim::SimTime now = net_.local_sim(node_).now();
  const sim::SimTime exp_now = net_.local_sim(node_).exp_now();
  flows_.for_each_active([&](FlowState& fs) {
    const int losses = fs.losses_this_epoch;
    fs.losses_this_epoch = 0;
    if (const double flood = flood_pps(fs); flood > 0.0) {
      // Unresponsive source: loss feedback is discarded, the rate series
      // records the flood rate it actually emits at.
      if (tracker_ != nullptr) tracker_->record_rate(fs.id, exp_now, flood);
      return;
    }
    fs.ctrl.on_epoch(cfg_.adapt, losses, now);
    if (tracker_ != nullptr) tracker_->record_rate(fs.id, exp_now, fs.ctrl.rate_pps());
  });
}

void CsfqEdgeRouter::handle_local(net::Packet&& p) {
  switch (p.kind) {
    case net::PacketKind::LossNotice: {
      ++losses_received_;
      FlowState* fs = flows_.lookup(p.flow);
      if (fs != nullptr && fs->active()) ++fs->losses_this_epoch;
      if (tracker_ != nullptr) {
        tracker_->on_feedback(p.flow);
        tracker_->on_dropped(p.flow);
      }
      break;
    }
    case net::PacketKind::Data:
      if (tracker_ != nullptr) tracker_->on_delivered(p.flow);
      break;
    default:
      break;
  }
}

double CsfqEdgeRouter::current_rate_pps(net::FlowId flow) const {
  const FlowState* fs = flows_.lookup(flow);
  if (fs == nullptr || !fs->active()) return 0.0;
  return fs->ctrl.rate_pps();
}

}  // namespace corelite::csfq
