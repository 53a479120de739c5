// Example: Corelite on your own topology.
//
// Everything in the library composes outside the paper's Figure-2
// setup.  Here: a "parking lot" of three cascaded bottlenecks with
// *different* capacities (6 / 4 / 2 Mbps), five flows with mixed
// weights and paths, the weighted max-min water-filling oracle applied
// to the custom topology, and a packet trace of marker/feedback
// activity on the tightest link.
//
//   e1 ─┐                               ┌─ x1
//   e2 ─┤                               ├─ x2
//   e3 ─┼─ A ══6M══ B ══4M══ C ══2M══ D ┼─ x3
//   e4 ─┤                               ├─ x4
//   e5 ─┘                               └─ x5
//
//   flow 1 (w=1): A -> D   (all three bottlenecks)
//   flow 2 (w=2): A -> B
//   flow 3 (w=1): B -> C
//   flow 4 (w=2): C -> D
//   flow 5 (w=1): B -> D   (two bottlenecks)
//
// Build & run:  ./build/examples/custom_topology
#include <cstdio>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "net/network.h"
#include "net/tracer.h"
#include "qos/core_router.h"
#include "qos/edge_router.h"
#include "sim/fluid/allocator.h"
#include "sim/simulator.h"
#include "stats/flow_tracker.h"

using namespace corelite;

int main() {
  sim::Simulator simulator{12};
  net::Network network{simulator};

  // Core chain with decreasing capacity.
  const auto A = network.add_node("A");
  const auto B = network.add_node("B");
  const auto C = network.add_node("C");
  const auto D = network.add_node("D");
  const auto d = sim::TimeDelta::millis(10);
  network.connect_duplex(A, B, sim::Rate::mbps(6), d, 40);  // 750 pkt/s
  network.connect_duplex(B, C, sim::Rate::mbps(4), d, 40);  // 500 pkt/s
  network.connect_duplex(C, D, sim::Rate::mbps(2), d, 40);  // 250 pkt/s

  // Flows: (ingress core, egress core, weight).
  struct Spec {
    net::NodeId in_core, out_core;
    double weight;
  };
  const std::vector<Spec> defs = {
      {A, D, 1.0}, {A, B, 2.0}, {B, C, 1.0}, {C, D, 2.0}, {B, D, 1.0}};

  qos::CoreliteConfig cfg;
  stats::FlowTracker tracker;
  std::vector<std::unique_ptr<qos::CoreliteEdgeRouter>> edges;
  std::vector<net::NodeId> ingresses;
  std::vector<net::NodeId> egresses;

  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto ingress = network.add_node("e" + std::to_string(i + 1));
    const auto egress = network.add_node("x" + std::to_string(i + 1));
    network.connect_duplex(ingress, defs[i].in_core, sim::Rate::mbps(10), d, 100);
    network.connect_duplex(defs[i].out_core, egress, sim::Rate::mbps(10), d, 100);
    ingresses.push_back(ingress);
    egresses.push_back(egress);
  }
  network.build_routes();

  // Core routers on every core node; edge router per ingress.
  std::vector<std::unique_ptr<qos::CoreliteCoreRouter>> cores;
  for (net::NodeId c : {A, B, C, D}) {
    cores.push_back(std::make_unique<qos::CoreliteCoreRouter>(network, c, cfg));
  }
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto ingress = ingresses[i];
    auto er = std::make_unique<qos::CoreliteEdgeRouter>(network, ingress, cfg, &tracker);
    net::FlowSpec fs;
    fs.id = static_cast<net::FlowId>(i + 1);
    fs.ingress = ingress;
    fs.egress = egresses[i];
    fs.weight = defs[i].weight;
    er->add_flow(fs);
    edges.push_back(std::move(er));
    network.node(egresses[i]).set_local_sink([&tracker](net::Packet&& p) {
      if (p.is_data()) tracker.on_delivered(p.flow);
    });
  }

  // Trace marker/feedback activity on the tightest link for 2 seconds.
  net::PacketTracer tracer;
  tracer.set_kind_filter(net::PacketKind::Marker);
  tracer.set_memory_limit(5);
  tracer.attach(*network.find_link(C, D));

  simulator.run_until(sim::SimTime::seconds(120));

  // Oracle: link capacities in pkt/s, flow paths as link indices.
  const std::vector<double> caps = {750.0, 500.0, 250.0};
  const double kInf = std::numeric_limits<double>::infinity();
  const std::vector<sim::fluid::AllocFlow> oracle_flows = {
      {1.0, kInf, {0, 1, 2}}, {2.0, kInf, {0}}, {1.0, kInf, {1}}, {2.0, kInf, {2}},
      {1.0, kInf, {1, 2}}};
  const std::vector<double> ideal = sim::fluid::water_fill(caps, oracle_flows);

  std::printf("Custom parking-lot topology: bottlenecks 750/500/250 pkt/s\n\n");
  std::printf("%-6s %-7s %-12s %-9s %-9s\n", "flow", "weight", "path", "ideal", "measured");
  const char* paths[] = {"A-B-C-D", "A-B", "B-C", "C-D", "B-C-D"};
  for (std::size_t i = 1; i <= defs.size(); ++i) {
    const auto f = static_cast<net::FlowId>(i);
    std::printf("%-6zu %-7.0f %-12s %-9.2f %-9.2f\n", i, defs[i - 1].weight, paths[i - 1],
                ideal[i - 1], tracker.series(f).allotted_rate.average_over(60, 120));
  }

  std::uint64_t drops = 0;
  for (const auto& link : network.links()) drops += link->stats().dropped;
  std::printf("\nnetwork drops: %llu\n", static_cast<unsigned long long>(drops));

  std::printf("\nfirst marker events on the 250 pkt/s link (C->D):\n");
  for (const auto& rec : tracer.records()) {
    std::printf("  %s\n", net::format_trace_record(rec).c_str());
  }
  std::printf("(markers observed on C->D: %llu)\n",
              static_cast<unsigned long long>(tracer.total_events()));
  return 0;
}
