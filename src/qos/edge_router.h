// Corelite edge-router behaviour (paper §2.2 steps 1 and 3).
//
// For every flow admitted at this ingress the edge router:
//   - shapes the flow to its allowed rate b_g(f) (infinite-backlog
//     sources paced at b_g, as in the paper's experiments),
//   - injects a marker after every N_w = K1 * w(f) data packets, labelled
//     with the flow's normalized rate b_g/w (markers are zero-size:
//     "physically piggybacked"),
//   - accumulates marker feedback per originating core router, and once
//     per epoch adapts b_g with the weighted LIMD controller, reacting
//     to the MAX of the per-core-router marker counts (throttle for the
//     bottleneck, not the sum of all bottlenecks).
//
// The edge router also acts as an egress sink: data packets addressed to
// its node are counted as delivered (for flows terminating here).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "net/flow.h"
#include "net/network.h"
#include "net/packet.h"
#include "qos/config.h"
#include "qos/flow_table.h"
#include "qos/token_bucket.h"
#include "sim/fluid/warp.h"
#include "stats/flow_tracker.h"

namespace corelite::qos {

class CoreliteEdgeRouter {
 public:
  /// `tracker` (optional) receives rate samples, send/feedback counters.
  CoreliteEdgeRouter(net::Network& network, net::NodeId node, const CoreliteConfig& config,
                     stats::FlowTracker* tracker = nullptr);

  CoreliteEdgeRouter(const CoreliteEdgeRouter&) = delete;
  CoreliteEdgeRouter& operator=(const CoreliteEdgeRouter&) = delete;
  ~CoreliteEdgeRouter();

  /// Admit a locally sourced (infinite-backlog, paced) flow whose
  /// ingress is this node.  Activity windows in the spec schedule its
  /// start/stop/restart automatically.
  void add_flow(const net::FlowSpec& spec);

  /// Admit a *transit* flow: packets are generated elsewhere (e.g. a
  /// TCP host behind this edge) and arrive at this node for forwarding.
  /// The edge diverts them into a per-flow shaping queue drained at
  /// b_g(f); overflow is dropped at the edge.  Marker injection and
  /// rate adaptation work exactly as for sourced flows.
  void add_transit_flow(const net::FlowSpec& spec);

  [[nodiscard]] std::uint64_t transit_drops() const { return transit_drops_; }

  /// Fluid fast-forward: route activity-window transitions through the
  /// experiment-time warp registry instead of fixed engine timestamps,
  /// so a fast-forward jump pulls them earlier rather than stranding
  /// them in the compressed-out span.  Must be set before any add_flow;
  /// nullptr (the default) keeps the legacy engine-time scheduling
  /// bit for bit.
  void set_fluid_warp(sim::fluid::TimeWarp* warp) { flows_.set_fluid_warp(warp); }

  /// Current allowed transmission rate b_g(f) in pkt/s (0 if unknown/idle).
  [[nodiscard]] double current_rate_pps(net::FlowId flow) const;

  [[nodiscard]] net::NodeId node() const { return node_; }
  [[nodiscard]] std::uint64_t markers_injected() const { return markers_injected_; }
  [[nodiscard]] std::uint64_t feedback_received() const { return feedback_received_; }
  [[nodiscard]] std::uint64_t data_delivered_here() const { return data_delivered_; }

 private:
  /// Transit-only state (add_transit_flow): the shaping queue of
  /// diverted packets, drained through a token bucket (burst tolerance
  /// without changing the mean rate).  Sourced flows carry none.
  struct Transit {
    explicit Transit(const TokenBucket& b) : bucket{b} {}

    std::deque<net::Packet> queue;
    TokenBucket bucket;
    bool draining = false;  ///< drain loop currently scheduled
  };

  struct FlowState : EdgeFlow {
    FlowState(const net::FlowSpec& s, const CoreliteConfig& cfg, std::uint32_t extra_index)
        : EdgeFlow{s, cfg.adapt, extra_index},
          marker_spacing{std::max<std::uint32_t>(
              1, static_cast<std::uint32_t>(std::lround(cfg.k1 * s.weight)))} {}

    std::uint32_t marker_spacing;  ///< N_w = K1 * w
    /// Out-of-profile packet credit: each data packet contributes the
    /// flow's out-of-profile fraction; a marker is injected when the
    /// credit reaches N_w.  For flows without a min-rate contract every
    /// packet is out-of-profile and this reduces to "a marker after
    /// every N_w data packets" (paper §2.2).
    double marker_credit = 0.0;
    /// Marker-feedback counts keyed by originating core router.  A flow
    /// crosses a handful of cores, so a flat pair vector beats a hash
    /// map on both memory (no buckets per flow) and epoch-scan cost.
    std::vector<std::pair<net::NodeId, int>> feedback_per_core;
  };
  // gen-100k holds 100k of these: four to a 512-B deque block.
  static_assert(sizeof(FlowState) <= 128, "Corelite edge flow record grew");

  /// What few flows carry, kept off the record (EdgeFlow::extra): a
  /// minimum-rate contract, a flood rate, OnOff pacing's phase and
  /// transit shaping.  A sourced flow with none of them under Paced or
  /// Poisson pacing (every flow of a generated population) has no entry.
  struct FlowExtra {
    double min_rate_pps = 0.0;
    double flood_pps = 0.0;
    sim::SimTime pacing_anchor;        ///< OnOff burst-cycle phase reference
    std::unique_ptr<Transit> transit;  ///< null for sourced flows
  };
  friend class FlowTable<FlowState, CoreliteEdgeRouter>;

  [[nodiscard]] double flood_pps(const FlowState& fs) const {
    return fs.extra == EdgeFlow::kNoExtra ? 0.0 : extras_[fs.extra].flood_pps;
  }
  [[nodiscard]] Transit* transit(const FlowState& fs) const {
    return fs.extra == EdgeFlow::kNoExtra ? nullptr : extras_[fs.extra].transit.get();
  }
  /// Rate above the minimum contract — the only part that competes
  /// for weighted fairness and the only part that is marked.
  [[nodiscard]] double out_of_profile_pps(const FlowState& fs) const {
    const double contract = fs.extra == EdgeFlow::kNoExtra ? 0.0 : extras_[fs.extra].min_rate_pps;
    return std::max(0.0, fs.ctrl.rate_pps() - contract);
  }

  void admit(const net::FlowSpec& spec, std::unique_ptr<Transit> transit);
  void start_flow(FlowState& fs);
  void stop_flow(FlowState& fs);
  void emit_packet(FlowState& fs);
  void drain_transit(FlowState& fs);
  bool intercept_transit(net::Packet& p);
  void count_marker_credit_and_maybe_mark(FlowState& fs);
  void inject_marker(FlowState& fs);
  [[nodiscard]] sim::TimeDelta next_emission_gap(FlowState& fs, double rate_pps);
  void on_epoch();
  void handle_local(net::Packet&& p);

  net::Network& net_;
  net::NodeId node_;
  CoreliteConfig cfg_;
  stats::FlowTracker* tracker_;
  FlowTable<FlowState, CoreliteEdgeRouter> flows_{*this, net_, node_};
  std::vector<FlowExtra> extras_;
  sim::PeriodicHandle epoch_timer_;
  std::uint64_t markers_injected_ = 0;
  std::uint64_t feedback_received_ = 0;
  std::uint64_t data_delivered_ = 0;
  std::uint64_t transit_drops_ = 0;
  bool transit_hook_installed_ = false;
};

}  // namespace corelite::qos
