// Deterministic topology generation — the workload axis beyond the
// paper's fixed Figure-2 chain.
//
// A GeneratedTopology is a pure description (routers, links, source/sink
// attach points, designated bottleneck links) produced by a seed-driven
// generator or read from a scenario script (config_script.h).  Three
// generator families cover the evaluation space:
//   - parking lot: an N-stage chain of core routers, the classic
//     multi-bottleneck fairness topology (Figure 2 is the 3-stage
//     instance);
//   - fat tree: a k-ary data-center fabric (core/aggregation/edge),
//     exercising many equal-cost short paths;
//   - ISP: a random connected graph (uniform random spanning tree plus
//     extra chords), exercising irregular path lengths and degrees.
//
// Generators are pure functions of their arguments: the same (family,
// size, seed) yields a byte-identical description on every platform,
// witnessed by digest() (FNV-1a over the full structure) and pinned by
// golden tests.  The description is turned into a live net::Network by
// the scenario runner (see scenario.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/units.h"

namespace corelite::scenario {

/// Link-parameter knobs shared by all generator families.
struct TopologyGenConfig {
  sim::Rate core_rate = sim::Rate::mbps(4);        ///< router-router links
  sim::Rate access_rate = sim::Rate::mbps(40);     ///< attach (source/sink) links
  sim::TimeDelta link_delay = sim::TimeDelta::millis(10);
  std::size_t queue_capacity_packets = 40;
  sim::DataSize packet_size = sim::DataSize::kilobytes(1);
};

/// A link's own rate, delay and queue size where they differ from the
/// TopologyGenConfig values (the generator families set none; a script
/// sets all), and whether it runs one way only: a -> b on a router link,
/// the way data flows on an attach link.
struct LinkParams {
  std::optional<sim::Rate> rate;
  std::optional<sim::TimeDelta> delay;
  std::optional<std::size_t> queue_packets;
  bool simplex = false;
};

/// One router-router link (endpoints are router indices).
struct GenLink {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  LinkParams own;
};

struct GeneratedTopology {
  std::string name;             ///< e.g. "pl8", "ft4", "isp32"
  std::size_t routers = 0;      ///< router indices are [0, routers)
  std::vector<GenLink> links;   ///< between routers
  /// Attach nodes: each entry is one source (sink) access node, hung
  /// off the router it names.  The generator families list each router
  /// once, so all flows entering (leaving) there share its node; the
  /// paper chain lists one entry per flow.
  std::vector<std::uint32_t> sources;
  std::vector<std::uint32_t> sinks;
  /// Each attach link's own parameters, parallel to sources (sinks);
  /// empty when all take the defaults.
  std::vector<LinkParams> source_links;
  std::vector<LinkParams> sink_links;
  /// Indices into `links` of the designated bottleneck links — the ones
  /// the runner samples queue lengths on, records drop times for and
  /// exposes to the telemetry instrument hook (the paper chain's three
  /// congested core links).
  std::vector<std::size_t> bottlenecks;
  TopologyGenConfig cfg;

  /// FNV-1a over the complete structure — the golden-test witness that
  /// a generator is deterministic and unchanged.
  [[nodiscard]] std::uint64_t digest() const;

  /// True iff every router is reachable from router 0 over `links`
  /// (either direction).
  [[nodiscard]] bool connected() const;

  /// Give every link propagation delay `d`.
  void set_link_delay(sim::TimeDelta d);

  /// Bottleneck capacity in packets per second.
  [[nodiscard]] double capacity_pps() const {
    return cfg.core_rate.pps(cfg.packet_size);
  }
};

/// N-stage parking lot: routers 0..stages in a chain; every chain link
/// is a bottleneck.  Sources attach at routers 0..stages-1, sinks at
/// 1..stages, so generated flows mix long hauls with cross traffic
/// exactly like the paper's population does.  Requires stages >= 1.
[[nodiscard]] GeneratedTopology make_parking_lot(std::size_t stages,
                                                 TopologyGenConfig cfg = {});

/// k-ary fat tree (k even, >= 2): (k/2)^2 core routers, k pods of k/2
/// aggregation + k/2 edge routers each.  Sources and sinks attach at
/// the edge routers; the aggregation-core links are the bottlenecks.
[[nodiscard]] GeneratedTopology make_fat_tree(std::size_t k, TopologyGenConfig cfg = {});

/// Random ISP-like graph: a uniform random spanning tree over `routers`
/// nodes plus ~routers/3 extra chords, fully determined by `seed`.
/// Every router is both a source and a sink candidate; the bottlenecks
/// are the highest-connectivity tree links (both endpoints of degree
/// >= 3), falling back to the first tree links for tiny graphs.
/// Requires routers >= 2.
[[nodiscard]] GeneratedTopology make_isp(std::size_t routers, std::uint64_t seed,
                                         TopologyGenConfig cfg = {});

}  // namespace corelite::scenario
