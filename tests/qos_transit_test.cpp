// Direct unit tests for the edge router's transit-shaping mode (the
// end-host interaction substrate): interception, shaping rate, queue
// bounds, marker injection for forwarded traffic, lifecycle, and the
// ill-behaved-flow protection the paper's §6 promises.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "net/network.h"
#include "qos/core_router.h"
#include "qos/edge_router.h"
#include "sim/simulator.h"
#include "stats/flow_tracker.h"

namespace corelite::qos {
namespace {

// host -> edge -> sink; the edge shapes transit flows.
struct TransitFixture {
  sim::Simulator simulator{41};
  net::Network network{simulator};
  net::NodeId host = network.add_node("host");
  net::NodeId edge = network.add_node("edge");
  net::NodeId sink = network.add_node("sink");
  CoreliteConfig cfg;
  stats::FlowTracker tracker;
  std::vector<double> arrivals;

  TransitFixture() {
    network.connect_duplex(host, edge, sim::Rate::mbps(100), sim::TimeDelta::millis(1), 500);
    network.connect_duplex(edge, sink, sim::Rate::mbps(100), sim::TimeDelta::millis(1), 500);
    network.build_routes();
    network.node(sink).set_local_sink([this](net::Packet&& p) {
      if (p.is_data()) {
        arrivals.push_back(simulator.now().sec());
        tracker.on_delivered(p.flow);
      }
    });
  }

  net::FlowSpec flow(net::FlowId id, double weight = 1.0) {
    net::FlowSpec fs;
    fs.id = id;
    fs.ingress = edge;
    fs.egress = sink;
    fs.weight = weight;
    return fs;
  }

  // CBR blaster at the host: `pps` packets/s of flow `id`.
  void blast(net::FlowId id, double pps) {
    simulator.every(sim::TimeDelta::seconds(1.0 / pps), [this, id] {
      net::Packet p;
      p.uid = network.next_packet_uid();
      p.kind = net::PacketKind::Data;
      p.flow = id;
      p.src = host;
      p.dst = sink;
      p.size = sim::DataSize::kilobytes(1);
      network.inject(host, std::move(p));
    });
  }

  [[nodiscard]] double delivered_pps(double t0, double t1) const {
    int n = 0;
    for (double t : arrivals) {
      if (t >= t0 && t < t1) ++n;
    }
    return n / (t1 - t0);
  }
};

TEST(Transit, ShapesBlasterToAllottedRate) {
  TransitFixture f;
  CoreliteEdgeRouter er{f.network, f.edge, f.cfg, &f.tracker};
  er.add_transit_flow(f.flow(1));
  f.blast(1, 400.0);  // host sends 400 pkt/s regardless of its share
  f.simulator.run_until(sim::SimTime::seconds(60));
  // No congestion anywhere (fat links): the edge's b_g keeps climbing,
  // so eventually everything passes — but while b_g < 400 the shaping
  // bound binds and the excess is dropped at the edge.
  EXPECT_GT(er.transit_drops(), 0u);
  // b_g crosses 400 around t ~ 43 s (slow-start exit at 32 at t = 6,
  // then +1 pkt/s per 100 ms epoch); delivery then equals the offer.
  EXPECT_NEAR(f.delivered_pps(50, 60), 400.0, 20.0);
  // While shaping was binding, delivery tracked b_g instead (~150 at
  // t ~ 17-18 s).
  EXPECT_LT(f.delivered_pps(15, 20), 250.0);
}

TEST(Transit, DropsStayAtEdgeQueueBound) {
  TransitFixture f;
  f.cfg.edge_queue_capacity = 8;
  CoreliteEdgeRouter er{f.network, f.edge, f.cfg, &f.tracker};
  er.add_transit_flow(f.flow(1));
  f.blast(1, 300.0);
  f.simulator.run_until(sim::SimTime::seconds(10));
  // In-network links never drop; the edge queue polices.
  for (const auto& link : f.network.links()) EXPECT_EQ(link->stats().dropped, 0u);
  EXPECT_GT(er.transit_drops(), 0u);
}

TEST(Transit, NonTransitFlowsForwardUntouched) {
  TransitFixture f;
  CoreliteEdgeRouter er{f.network, f.edge, f.cfg, &f.tracker};
  er.add_transit_flow(f.flow(1));
  f.blast(2, 100.0);  // flow 2 is NOT registered: plain forwarding
  f.simulator.run_until(sim::SimTime::seconds(5));
  EXPECT_NEAR(f.delivered_pps(1, 5), 100.0, 10.0);
  EXPECT_EQ(er.transit_drops(), 0u);
}

TEST(Transit, InactiveWindowDropsAtEdge) {
  TransitFixture f;
  CoreliteEdgeRouter er{f.network, f.edge, f.cfg, &f.tracker};
  auto fs = f.flow(1);
  fs.active = {{sim::SimTime::seconds(5), sim::SimTime::infinite()}};
  er.add_transit_flow(fs);
  f.blast(1, 100.0);
  f.simulator.run_until(sim::SimTime::seconds(20));
  // Nothing passes before the admission window opens at t = 5; after
  // it opens the flow slow-starts from scratch and ramps up.
  EXPECT_NEAR(f.delivered_pps(0, 5), 0.0, 1.0);
  EXPECT_GT(f.delivered_pps(6, 10), 2.0);
  EXPECT_GT(f.delivered_pps(15, 20), 40.0);
}

TEST(Transit, MarkersInjectedForForwardedTraffic) {
  TransitFixture f;
  CoreliteEdgeRouter er{f.network, f.edge, f.cfg, &f.tracker};
  er.add_transit_flow(f.flow(1, /*weight=*/2.0));
  f.blast(1, 200.0);
  f.simulator.run_until(sim::SimTime::seconds(10));
  EXPECT_GT(er.markers_injected(), 0u);
  // Spacing ~ K1 * w = 2 data packets per marker.
  const auto sent = f.tracker.series(1).sent;
  EXPECT_NEAR(static_cast<double>(sent) / er.markers_injected(), 2.0, 0.5);
}

// Ill-behaved flow protection (paper §6: "drop packets from ill behaved
// flows at the edges of the network"): flow 1 is a 2000 pkt/s blaster
// behind edgeBad (transit) that ignores all feedback; flow 2 is a
// conforming sourced flow of equal weight behind edgeGood.  Both cross
// the same 500 pkt/s core -> sink bottleneck.
struct IllBehavedFixture {
  sim::Simulator simulator{43};
  net::Network network{simulator};
  net::NodeId host_bad = network.add_node("hostBad");
  net::NodeId edge_bad = network.add_node("edgeBad");
  net::NodeId edge_good = network.add_node("edgeGood");
  net::NodeId core = network.add_node("core");
  net::NodeId sink = network.add_node("sink");
  CoreliteConfig cfg;
  stats::FlowTracker tracker;
  std::optional<CoreliteCoreRouter> core_router;
  std::optional<CoreliteEdgeRouter> er_bad;
  std::optional<CoreliteEdgeRouter> er_good;

  IllBehavedFixture() {
    const auto d = sim::TimeDelta::millis(2);
    network.connect_duplex(host_bad, edge_bad, sim::Rate::mbps(100), d, 500);
    network.connect_duplex(edge_bad, core, sim::Rate::mbps(20), d, 100);
    network.connect_duplex(edge_good, core, sim::Rate::mbps(20), d, 100);
    network.connect_duplex(core, sink, sim::Rate::mbps(4), d, 40);  // 500 pkt/s
    network.build_routes();
    core_router.emplace(network, core, cfg);
    er_bad.emplace(network, edge_bad, cfg, &tracker);
    er_good.emplace(network, edge_good, cfg, &tracker);

    net::FlowSpec f1;
    f1.id = 1;
    f1.ingress = edge_bad;
    f1.egress = sink;
    f1.weight = 1.0;
    er_bad->add_transit_flow(f1);
    simulator.every(sim::TimeDelta::millis(0.5), [this] {
      net::Packet p;
      p.uid = network.next_packet_uid();
      p.kind = net::PacketKind::Data;
      p.flow = 1;
      p.src = host_bad;
      p.dst = sink;
      p.size = sim::DataSize::kilobytes(1);
      network.inject(host_bad, std::move(p));
    });

    net::FlowSpec f2;
    f2.id = 2;
    f2.ingress = edge_good;
    f2.egress = sink;
    f2.weight = 1.0;
    er_good->add_flow(f2);

    network.node(sink).set_local_sink([this](net::Packet&& p) {
      if (p.is_data()) tracker.on_delivered(p.flow);
    });
  }
};

TEST(Transit, IllBehavedFlowCannotHurtConformingFlow) {
  IllBehavedFixture f;
  f.simulator.run_until(sim::SimTime::seconds(120));

  // Equal weights: the conforming flow still receives its ~250 pkt/s.
  const double good_rate = f.tracker.series(2).allotted_rate.average_over(60, 120);
  EXPECT_NEAR(good_rate, 250.0, 50.0);
  // The blaster's excess (2000 - ~250) dies at ITS edge, not in the core.
  EXPECT_GT(f.er_bad->transit_drops(), 50000u);
  const auto* bottleneck = f.network.find_link(f.core, f.sink);
  EXPECT_EQ(bottleneck->stats().dropped, 0u);
}

// Exact-count witness for the transit path: the shaping queue, token
// bucket and drain loop must reproduce these counts to the packet.
TEST(Transit, IllBehavedFlowExactCounts) {
  IllBehavedFixture f;
  f.simulator.run_until(sim::SimTime::seconds(120));
  EXPECT_EQ(f.tracker.series(1).sent, 25263u);
  EXPECT_EQ(f.tracker.series(1).delivered, 25261u);
  EXPECT_EQ(f.tracker.series(1).dropped, 214700u);
  EXPECT_EQ(f.tracker.series(2).sent, 25086u);
  EXPECT_EQ(f.tracker.series(2).delivered, 25085u);
  EXPECT_EQ(f.tracker.series(2).dropped, 0u);
  EXPECT_EQ(f.er_bad->transit_drops(), 214700u);
  EXPECT_EQ(f.er_bad->markers_injected(), 25263u);
  EXPECT_EQ(f.er_good->markers_injected(), 25086u);
}

}  // namespace
}  // namespace corelite::qos
