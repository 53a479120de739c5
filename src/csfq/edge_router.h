// Weighted CSFQ edge behaviour + the paper's loss-driven source agents.
//
// The edge router estimates each flow's rate with exponential averaging
// (constant K) and stamps every data packet's label with the normalized
// rate r/w — the only information CSFQ cores use.  The co-located
// source agent shapes the flow at its allowed rate b_g and adapts b_g
// with the same LIMD/slow-start controller Corelite uses, with packet
// losses (LossNotice control packets from core routers) standing in for
// marker feedback, exactly as the paper's comparison sets up (§4).
//
// Note the structural difference the paper highlights: CSFQ losses do
// not identify which core link dropped, so the agent reacts to the
// TOTAL loss count per epoch, while Corelite's edge can take the max
// over core routers.
#pragma once

#include <cstdint>
#include <vector>

#include "csfq/config.h"
#include "csfq/rate_estimator.h"
#include "net/flow.h"
#include "net/network.h"
#include "net/packet.h"
#include "qos/flow_table.h"
#include "sim/fluid/warp.h"
#include "stats/flow_tracker.h"

namespace corelite::csfq {

class CsfqEdgeRouter {
 public:
  CsfqEdgeRouter(net::Network& network, net::NodeId node, const CsfqConfig& config,
                 stats::FlowTracker* tracker = nullptr);

  CsfqEdgeRouter(const CsfqEdgeRouter&) = delete;
  CsfqEdgeRouter& operator=(const CsfqEdgeRouter&) = delete;
  ~CsfqEdgeRouter();

  void add_flow(const net::FlowSpec& spec);

  [[nodiscard]] double current_rate_pps(net::FlowId flow) const;
  [[nodiscard]] net::NodeId node() const { return node_; }
  [[nodiscard]] std::uint64_t loss_notices_received() const { return losses_received_; }

  /// Fluid fast-forward: route activity-window transitions through the
  /// experiment-time warp registry (see CoreliteEdgeRouter::
  /// set_fluid_warp).  Must be set before any add_flow; nullptr keeps
  /// the legacy engine-time scheduling bit for bit.
  void set_fluid_warp(sim::fluid::TimeWarp* warp) { flows_.set_fluid_warp(warp); }

 private:
  struct FlowState : qos::EdgeFlow {
    FlowState(const net::FlowSpec& s, const CsfqConfig& cfg, std::uint32_t extra_index)
        : EdgeFlow{s, cfg.adapt, extra_index}, estimator{cfg.k_flow} {}

    int losses_this_epoch = 0;
    ExponentialRateEstimator estimator;
  };
  // gen-100k holds 100k of these: four to a 512-B deque block.
  static_assert(sizeof(FlowState) <= 128, "CSFQ edge flow record grew");

  /// A flood's fixed rate (EdgeFlow::extra indexes it); 0 for the rest.
  [[nodiscard]] double flood_pps(const FlowState& fs) const {
    return fs.extra == qos::EdgeFlow::kNoExtra ? 0.0 : flood_pps_[fs.extra];
  }
  friend class qos::FlowTable<FlowState, CsfqEdgeRouter>;

  void start_flow(FlowState& fs);
  void stop_flow(FlowState& fs);
  void emit_packet(FlowState& fs);
  void on_epoch();
  void handle_local(net::Packet&& p);

  net::Network& net_;
  net::NodeId node_;
  CsfqConfig cfg_;
  stats::FlowTracker* tracker_;
  qos::FlowTable<FlowState, CsfqEdgeRouter> flows_{*this, net_, node_};
  std::vector<double> flood_pps_;  ///< the flood flows' rates
  sim::PeriodicHandle epoch_timer_;
  std::uint64_t losses_received_ = 0;
};

}  // namespace corelite::csfq
