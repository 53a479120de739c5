// Tests for the Corelite core router on a real (small) network: marker
// interception, congestion-triggered feedback, weighted-fair feedback
// proportionality, and the feedback packet's addressing contract.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "net/network.h"
#include "qos/core_router.h"
#include "qos/edge_router.h"
#include "sim/simulator.h"
#include "stats/flow_tracker.h"

namespace corelite::qos {
namespace {

// Two ingress edges -> one core -> sink, with a slow core->sink link so
// the core's output queue actually congests.
struct CoreFixture {
  sim::Simulator simulator{7};
  net::Network network{simulator};
  net::NodeId edge_a = network.add_node("edgeA");
  net::NodeId edge_b = network.add_node("edgeB");
  net::NodeId core = network.add_node("core");
  net::NodeId sink = network.add_node("sink");
  CoreliteConfig cfg;
  stats::FlowTracker tracker;

  CoreFixture() {
    network.connect_duplex(edge_a, core, sim::Rate::mbps(10), sim::TimeDelta::millis(5), 100);
    network.connect_duplex(edge_b, core, sim::Rate::mbps(10), sim::TimeDelta::millis(5), 100);
    network.connect_duplex(core, sink, sim::Rate::mbps(4), sim::TimeDelta::millis(5), 40);
    network.build_routes();
    network.node(sink).set_local_sink([](net::Packet&&) {});
  }

  net::FlowSpec flow(net::FlowId id, net::NodeId ingress, double weight) {
    net::FlowSpec fs;
    fs.id = id;
    fs.ingress = ingress;
    fs.egress = sink;
    fs.weight = weight;
    return fs;
  }
};

TEST(CoreRouter, GeneratesFeedbackUnderCongestion) {
  CoreFixture f;
  CoreliteCoreRouter core{f.network, f.core, f.cfg};
  CoreliteEdgeRouter ea{f.network, f.edge_a, f.cfg, &f.tracker};
  CoreliteEdgeRouter eb{f.network, f.edge_b, f.cfg, &f.tracker};
  ea.add_flow(f.flow(1, f.edge_a, 1.0));
  eb.add_flow(f.flow(2, f.edge_b, 1.0));
  f.simulator.run_until(sim::SimTime::seconds(60));
  EXPECT_GT(core.total_feedback_sent(), 0u);
  EXPECT_GT(ea.feedback_received() + eb.feedback_received(), 0u);
}

TEST(CoreRouter, NoFeedbackWithoutCongestion) {
  CoreFixture f;
  // Single low-weight flow far below capacity: queue never builds.
  CoreliteCoreRouter core{f.network, f.core, f.cfg};
  CoreliteEdgeRouter ea{f.network, f.edge_a, f.cfg, &f.tracker};
  auto fs = f.flow(1, f.edge_a, 1.0);
  f.cfg.adapt.ss_thresh_pps = 8.0;
  ea.add_flow(fs);
  f.simulator.run_until(sim::SimTime::seconds(5));
  // Rates this early stay under 100 pkt/s vs 500 capacity.
  EXPECT_EQ(core.total_feedback_sent(), 0u);
}

TEST(CoreRouter, FeedbackAddressedToGeneratingEdge) {
  CoreFixture f;
  CoreliteCoreRouter core{f.network, f.core, f.cfg};
  CoreliteEdgeRouter ea{f.network, f.edge_a, f.cfg, &f.tracker};
  CoreliteEdgeRouter eb{f.network, f.edge_b, f.cfg, &f.tracker};
  ea.add_flow(f.flow(1, f.edge_a, 1.0));
  eb.add_flow(f.flow(2, f.edge_b, 1.0));
  f.simulator.run_until(sim::SimTime::seconds(60));
  // Every feedback the edges counted was addressed to them and stamped
  // with the core's id; both edges converge so both must have seen some.
  EXPECT_GT(ea.feedback_received(), 0u);
  EXPECT_GT(eb.feedback_received(), 0u);
}

TEST(CoreRouter, WeightedRatesEmergeOnSingleBottleneck) {
  CoreFixture f;
  CoreliteCoreRouter core{f.network, f.core, f.cfg};
  CoreliteEdgeRouter ea{f.network, f.edge_a, f.cfg, &f.tracker};
  CoreliteEdgeRouter eb{f.network, f.edge_b, f.cfg, &f.tracker};
  // Weights 1:4 on a 500 pkt/s link: expect ~100 vs ~400 pkt/s.
  ea.add_flow(f.flow(1, f.edge_a, 1.0));
  eb.add_flow(f.flow(2, f.edge_b, 4.0));
  f.simulator.run_until(sim::SimTime::seconds(120));
  const double ra = f.tracker.series(1).allotted_rate.average_over(60, 120);
  const double rb = f.tracker.series(2).allotted_rate.average_over(60, 120);
  EXPECT_NEAR(ra, 100.0, 25.0);
  EXPECT_NEAR(rb, 400.0, 60.0);
  EXPECT_NEAR(rb / ra, 4.0, 1.0);
}

TEST(CoreRouter, MarkerCacheSelectorAlsoConverges) {
  CoreFixture f;
  f.cfg.selector = SelectorKind::MarkerCache;
  CoreliteCoreRouter core{f.network, f.core, f.cfg};
  CoreliteEdgeRouter ea{f.network, f.edge_a, f.cfg, &f.tracker};
  CoreliteEdgeRouter eb{f.network, f.edge_b, f.cfg, &f.tracker};
  ea.add_flow(f.flow(1, f.edge_a, 1.0));
  eb.add_flow(f.flow(2, f.edge_b, 2.0));
  f.simulator.run_until(sim::SimTime::seconds(120));
  const double ra = f.tracker.series(1).allotted_rate.average_over(60, 120);
  const double rb = f.tracker.series(2).allotted_rate.average_over(60, 120);
  EXPECT_NEAR(rb / ra, 2.0, 0.8);
  EXPECT_NEAR(ra + rb, 500.0, 100.0);
}

TEST(CoreRouter, DiagnosticsExposePerLinkState) {
  CoreFixture f;
  CoreliteCoreRouter core{f.network, f.core, f.cfg};
  CoreliteEdgeRouter ea{f.network, f.edge_a, f.cfg, &f.tracker};
  CoreliteEdgeRouter eb{f.network, f.edge_b, f.cfg, &f.tracker};
  ea.add_flow(f.flow(1, f.edge_a, 1.0));
  eb.add_flow(f.flow(2, f.edge_b, 1.0));
  f.simulator.run_until(sim::SimTime::seconds(30));
  const auto diags = core.diagnostics();
  ASSERT_EQ(diags.size(), 3u);  // links to edgeA, edgeB (reverse) and sink
  bool found_congested = false;
  for (const auto& d : diags) {
    // Every link saw its epochs; the mean q_avg over the run is a queue
    // length, so it is finite and non-negative.
    ASSERT_FALSE(d.q_avg.empty());
    const double mean = d.q_avg.average_to(30.0);
    EXPECT_TRUE(std::isfinite(mean));
    EXPECT_GE(mean, 0.0);
    if (d.link_to == f.sink && d.congested_epochs > 0) {
      found_congested = true;
      EXPECT_GT(mean, 0.0);  // the bottleneck queued something
    }
  }
  EXPECT_TRUE(found_congested);
}

TEST(CoreRouter, CoreliteKeepsQueueBelowCapacityNoDrops) {
  CoreFixture f;
  CoreliteCoreRouter core{f.network, f.core, f.cfg};
  CoreliteEdgeRouter ea{f.network, f.edge_a, f.cfg, &f.tracker};
  CoreliteEdgeRouter eb{f.network, f.edge_b, f.cfg, &f.tracker};
  ea.add_flow(f.flow(1, f.edge_a, 1.0));
  eb.add_flow(f.flow(2, f.edge_b, 3.0));
  f.simulator.run_until(sim::SimTime::seconds(120));
  // The paper's headline property: rate adaptation without packet loss.
  const auto* bottleneck = f.network.find_link(f.core, f.sink);
  ASSERT_NE(bottleneck, nullptr);
  EXPECT_EQ(bottleneck->stats().dropped, 0u);
}

}  // namespace
}  // namespace corelite::qos
