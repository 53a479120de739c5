// Edge-case coverage for small utilities not exercised elsewhere:
// FlowSpec activity windows, packet classification, trace helpers,
// network lookups, table writer, marker info defaults.
#include <gtest/gtest.h>

#include <sstream>

#include "net/flow.h"
#include "net/network.h"
#include "net/packet.h"
#include "net/tracer.h"
#include "sim/simulator.h"
#include "stats/csv_writer.h"

namespace corelite {
namespace {

TEST(FlowSpec, ActiveAtRespectsWindows) {
  net::FlowSpec fs;
  fs.active = {{sim::SimTime::seconds(1), sim::SimTime::seconds(2)},
               {sim::SimTime::seconds(5), sim::SimTime::infinite()}};
  EXPECT_FALSE(fs.active_at(sim::SimTime::seconds(0.5)));
  EXPECT_TRUE(fs.active_at(sim::SimTime::seconds(1.0)));   // inclusive start
  EXPECT_FALSE(fs.active_at(sim::SimTime::seconds(2.0)));  // exclusive stop
  EXPECT_FALSE(fs.active_at(sim::SimTime::seconds(3.0)));
  EXPECT_TRUE(fs.active_at(sim::SimTime::seconds(100.0)));
}

TEST(FlowSpec, DefaultAlwaysOn) {
  net::FlowSpec fs;
  EXPECT_TRUE(fs.active_at(sim::SimTime::zero()));
  EXPECT_TRUE(fs.active_at(sim::SimTime::seconds(1e6)));
}

// Regression: unordered/overlapping windows used to be silently
// tolerated by the linear active_at scan; with the O(log W) binary
// search they must be rejected at spec-validation time instead.
TEST(FlowSpec, WindowValidationRejectsUnorderedAndOverlapping) {
  auto win = [](double a, double b) {
    return net::ActiveInterval{sim::SimTime::seconds(a), sim::SimTime::seconds(b)};
  };
  EXPECT_TRUE(net::valid_activity_windows({}));
  EXPECT_TRUE(net::valid_activity_windows({win(0, 5)}));
  EXPECT_TRUE(net::valid_activity_windows({win(0, 5), win(5, 9)}));  // touching is fine
  EXPECT_TRUE(net::valid_activity_windows(
      {win(0, 5), {sim::SimTime::seconds(6), sim::SimTime::infinite()}}));
  // Out of order.
  EXPECT_FALSE(net::valid_activity_windows({win(5, 9), win(0, 4)}));
  // Overlapping.
  EXPECT_FALSE(net::valid_activity_windows({win(0, 5), win(4, 9)}));
  // Empty or inverted window.
  EXPECT_FALSE(net::valid_activity_windows({win(3, 3)}));
  EXPECT_FALSE(net::valid_activity_windows({win(4, 2)}));
  // NaN start never orders.
  EXPECT_FALSE(net::valid_activity_windows(
      {{sim::SimTime::seconds(std::nan("")), sim::SimTime::seconds(1)}}));

  net::FlowSpec fs;
  fs.id = 1;
  EXPECT_TRUE(fs.valid());
  fs.active = {win(5, 9), win(0, 4)};
  EXPECT_FALSE(fs.valid());
  fs.active = {win(0, 4), win(5, 9)};
  EXPECT_TRUE(fs.valid());
  fs.weight = std::nan("");
  EXPECT_FALSE(fs.valid());
}

// kInvalidFlow is the unset default and the edge index's empty-slot
// key, and id + 1 overflows 32 bits for it: no valid spec carries it.
TEST(FlowSpec, ValidRejectsTheInvalidFlowId) {
  net::FlowSpec fs;
  EXPECT_EQ(fs.id, net::kInvalidFlow);
  EXPECT_FALSE(fs.valid());
  fs.id = net::kInvalidFlow - 1;
  EXPECT_TRUE(fs.valid());
  fs.id = 0;
  EXPECT_TRUE(fs.valid());
}

// The binary-search query must agree with a brute-force scan over a
// churn-sized window population, at boundaries included.
TEST(FlowSpec, ActiveAtBinarySearchMatchesLinearScan) {
  net::FlowSpec fs;
  fs.id = 1;
  fs.active.clear();
  for (int i = 0; i < 200; ++i) {
    fs.active.push_back({sim::SimTime::seconds(3.0 * i), sim::SimTime::seconds(3.0 * i + 2.0)});
  }
  ASSERT_TRUE(fs.valid());
  auto linear = [&](sim::SimTime t) {
    for (const auto& iv : fs.active) {
      if (t >= iv.start && t < iv.stop) return true;
    }
    return false;
  };
  for (double t = -1.0; t < 610.0; t += 0.25) {
    const auto st = sim::SimTime::seconds(t);
    EXPECT_EQ(fs.active_at(st), linear(st)) << "t=" << t;
  }
}

TEST(Packet, KindClassification) {
  net::Packet p;
  p.kind = net::PacketKind::Data;
  EXPECT_TRUE(p.is_data());
  EXPECT_FALSE(p.is_control());
  for (auto kind : {net::PacketKind::Marker, net::PacketKind::Feedback,
                    net::PacketKind::LossNotice, net::PacketKind::Ack}) {
    p.kind = kind;
    EXPECT_FALSE(p.is_data());
    EXPECT_TRUE(p.is_control());
  }
}

TEST(Tracer, KindNamesCoverAllValues) {
  EXPECT_EQ(net::packet_kind_name(net::PacketKind::Data), "data");
  EXPECT_EQ(net::packet_kind_name(net::PacketKind::Marker), "marker");
  EXPECT_EQ(net::packet_kind_name(net::PacketKind::Feedback), "feedback");
  EXPECT_EQ(net::packet_kind_name(net::PacketKind::LossNotice), "loss");
  EXPECT_EQ(net::packet_kind_name(net::PacketKind::Ack), "ack");
  EXPECT_EQ(net::trace_event_code(net::TraceEvent::Enqueue), '+');
  EXPECT_EQ(net::trace_event_code(net::TraceEvent::Dequeue), '-');
  EXPECT_EQ(net::trace_event_code(net::TraceEvent::Drop), 'd');
}

TEST(Network, SelfPathIsSingleton) {
  sim::Simulator simulator{1};
  net::Network n{simulator};
  const auto a = n.add_node("a");
  n.build_routes();
  EXPECT_EQ(n.path(a, a), std::vector<net::NodeId>{a});
}

TEST(Network, NodeNamesPreserved) {
  sim::Simulator simulator{1};
  net::Network n{simulator};
  const auto a = n.add_node("ingress-7");
  EXPECT_EQ(n.node(a).name(), "ingress-7");
  EXPECT_EQ(n.node_count(), 1u);
}

TEST(Network, ControlLossRateDefaultsOff) {
  sim::Simulator simulator{1};
  net::Network n{simulator};
  const auto a = n.add_node("a");
  const auto b = n.add_node("b");
  auto& l = n.connect(a, b, sim::Rate::mbps(4), sim::TimeDelta::millis(1), 10);
  EXPECT_DOUBLE_EQ(l.control_loss_rate(), 0.0);
  l.set_control_loss_rate(0.25);
  EXPECT_DOUBLE_EQ(l.control_loss_rate(), 0.25);
}

TEST(CsvWriter, TableHandlesEmptySeries) {
  stats::TimeSeries empty;
  std::ostringstream os;
  stats::write_table(os, {{"x", empty}}, 0.0, 2.0, 1.0);
  // Three grid rows of zeros, no crash.
  const std::string out = os.str();
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);  // header + 3 rows
}

TEST(MarkerInfo, DefaultsAreInvalid) {
  net::MarkerInfo m;
  EXPECT_EQ(m.edge_router, net::kInvalidNode);
  EXPECT_EQ(m.flow, net::kInvalidFlow);
  EXPECT_DOUBLE_EQ(m.normalized_rate, 0.0);
}

TEST(Units, RatePacketHelpers) {
  const auto r = sim::Rate::packets_per_second(500.0, sim::DataSize::kilobytes(1));
  EXPECT_DOUBLE_EQ(r.bits_per_second(), 4e6);
  EXPECT_DOUBLE_EQ(r.pps(sim::DataSize::kilobytes(1)), 500.0);
}

}  // namespace
}  // namespace corelite
