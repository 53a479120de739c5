#include "scenario/paper_topology.h"

#include <cassert>

namespace corelite::scenario {

std::pair<std::size_t, std::size_t> PaperTopology::core_span(net::FlowId flow_1based) {
  assert(flow_1based >= 1);
  const auto f = flow_1based;
  if (f <= 5) return {0, 1};
  if (f <= 8) return {0, 2};
  if (f <= 10) return {0, 3};
  if (f <= 12) return {1, 2};
  if (f <= 15) return {1, 3};
  if (f <= 20) return {2, 3};
  // Beyond the paper's 20 flows: cycle across the single-link spans.
  const std::size_t span = (f - 21) % kCongestedLinks;
  return {span, span + 1};
}

std::vector<std::size_t> PaperTopology::congested_links(net::FlowId flow_1based) {
  const auto [entry, exit] = core_span(flow_1based);
  std::vector<std::size_t> out;
  for (std::size_t i = entry; i < exit; ++i) out.push_back(i);
  return out;
}

GeneratedTopology make_paper_chain(const PaperTopologyConfig& cfg, std::size_t num_flows) {
  TopologyGenConfig gen;
  gen.core_rate = cfg.link_rate;
  gen.access_rate = cfg.link_rate;
  gen.link_delay = cfg.link_delay;
  gen.queue_capacity_packets = cfg.queue_capacity_packets;
  gen.packet_size = cfg.packet_size;
  GeneratedTopology t = make_parking_lot(PaperTopology::kCongestedLinks, gen);
  t.sources.clear();
  t.sinks.clear();
  for (std::size_t f = 1; f <= num_flows; ++f) {
    const auto [entry, exit] = PaperTopology::core_span(static_cast<net::FlowId>(f));
    t.sources.push_back(static_cast<std::uint32_t>(entry));
    t.sinks.push_back(static_cast<std::uint32_t>(exit));
  }
  return t;
}

}  // namespace corelite::scenario
