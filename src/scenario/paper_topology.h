// The simulation topology of the paper (Figure 2).
//
// Four core routers C1-C2-C3-C4 in a chain; the three core links are
// the (potentially) congested links.  Every flow gets its own ingress
// edge router attached to its entry core router and its own egress node
// attached to its exit core router.  All links are 4 Mbps (500 pkt/s
// at 1 KB packets) with 40 ms propagation delay, giving the paper's
// round-trip times of 240/320/400 ms for flows crossing 1/2/3
// congested links.
//
// The network is the 3-stage parking lot of topology_gen.h with one
// access node per flow: make_paper_chain() returns that description,
// and the scenario runner builds it like any generated topology.
//
// Flow-to-path assignment (paper §4.1, flow ids 1-based):
//   1-5   : C1 -> C2          (single congested link, RTT 240 ms)
//   6-8   : C1 -> C3          (two congested links,   RTT 320 ms)
//   9-10  : C1 -> C4          (three congested links, RTT 400 ms)
//   11-12 : C2 -> C3          (single)
//   13-15 : C2 -> C4          (two)
//   16-20 : C3 -> C4          (single)
// Ids beyond 20 cycle over the three single-link spans.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "net/choke_queue.h"
#include "net/fred_queue.h"
#include "net/queue.h"
#include "net/types.h"
#include "scenario/topology_gen.h"
#include "sim/units.h"

namespace corelite::scenario {

/// Link parameters of the paper chain, plus the configuration of every
/// queue discipline a mechanism may run on router-router links (shared
/// by the paper chain and generated topologies).
struct PaperTopologyConfig {
  sim::Rate link_rate = sim::Rate::mbps(4);
  sim::TimeDelta link_delay = sim::TimeDelta::millis(40);
  std::size_t queue_capacity_packets = 40;
  sim::DataSize packet_size = sim::DataSize::kilobytes(1);
  net::RedQueue::Config red{};
  net::FredQueue::Config fred{};
  net::ChokeQueue::Config choke{};
  /// Stochastic-fair-queueing band count (per-band capacity is
  /// queue_capacity_packets / bands, floor 2).
  std::size_t sfq_bands = 16;
};

struct PaperTopology {
  static constexpr std::size_t kCoreCount = 4;
  static constexpr std::size_t kCongestedLinks = 3;  // C1C2, C2C3, C3C4

  /// (entry core index, exit core index) for 1-based flow id.
  [[nodiscard]] static std::pair<std::size_t, std::size_t> core_span(net::FlowId flow_1based);

  /// Indices (0..2) of congested core links the flow traverses.
  [[nodiscard]] static std::vector<std::size_t> congested_links(net::FlowId flow_1based);
};

/// The Figure-2 network for flows 1..num_flows as a topology
/// description: make_parking_lot(3) with access rate equal to the core
/// rate, and one source and one sink attach node per flow (entry i of
/// `sources`/`sinks` is flow i+1's entry/exit core).
[[nodiscard]] GeneratedTopology make_paper_chain(const PaperTopologyConfig& cfg,
                                                 std::size_t num_flows);

}  // namespace corelite::scenario
