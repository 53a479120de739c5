// The scenario runner: turns a topology description + flow population
// into a live network and runs it under any mechanism.
//
// Paper specs run the Figure-2 chain (make_paper_chain: the 3-stage
// parking lot with one attach node per flow) with flows taken from the
// spec; generated specs run their topology with a population generated
// from the run seed, or the fixed flow list of a scenario script.  All
// are built the same way:
//   - routers, with the mechanism's queue discipline on both directions
//     of every router-router link (one on a simplex link);
//   - one access node per entry of the topology's sources and sinks,
//     joined to its router by a drop-tail link;
//   - core machinery on every router, one (multi-flow) edge router per
//     source attach node and one egress sink per sink attach node, of
//     the kinds the mechanism's table row names;
//   - the telemetry surface (drop times, queue series, bottleneck drops,
//     the instrument hook) covers the topology's designated bottleneck
//     links.
// ideal_rates_at builds the same fabric over drop-tail queues and solves
// the water-filling oracle over the same per-flow constraint sets that
// the fluid controller and the fairness auditor use.
#include <algorithm>
#include <cassert>
#include <cstdio>
#include <deque>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "csfq/core.h"
#include "csfq/edge_router.h"
#include "net/network.h"
#include "net/sfq_queue.h"
#include "net/wfq_queue.h"
#include "qos/core_router.h"
#include "qos/ecn.h"
#include "qos/edge_router.h"
#include "scenario/scenario.h"
#include "sim/fluid/allocator.h"
#include "sim/fluid/controller.h"
#include "sim/fluid/warp.h"
#include "sim/hotpath.h"
#include "sim/parallel/lp_partition.h"
#include "sim/parallel/lp_runtime.h"
#include "sim/simulator.h"
#include "stats/fairness.h"

namespace corelite::scenario {

namespace {

// Records the virtual time of every data drop on a link.
struct DropRecorder final : net::LinkObserver {
  net::Link* link = nullptr;
  std::vector<double>* sink = nullptr;
  ~DropRecorder() override {
    if (link != nullptr) link->remove_observer(this);
  }
  void on_drop(const net::Packet& p, sim::SimTime now) override {
    if (p.is_data()) sink->push_back(now.sec());
  }
  void on_link_destroyed(net::Link& /*l*/) override { link = nullptr; }
};

/// The queue discipline `kind` for one directed router-router link.
/// AQM queues draw from `rng`, the link's OWNING simulator's stream (the
/// from node's LP): serially the one global stream, in LP mode a
/// single-threaded one.
std::unique_ptr<net::PacketQueue> make_core_queue(CoreQueueKind kind,
                                                  const PaperTopologyConfig& q,
                                                  std::size_t capacity, sim::Rng& rng,
                                                  const net::WfqQueue::WeightFn& weight_of) {
  switch (kind) {
    case CoreQueueKind::Red: {
      auto cfg = q.red;
      cfg.capacity_data_packets = capacity;
      return std::make_unique<net::RedQueue>(cfg, rng);
    }
    case CoreQueueKind::Fred: {
      auto cfg = q.fred;
      cfg.capacity_data_packets = capacity;
      return std::make_unique<net::FredQueue>(cfg, rng);
    }
    case CoreQueueKind::Choke: {
      auto cfg = q.choke;
      cfg.capacity_data_packets = capacity;
      return std::make_unique<net::ChokeQueue>(cfg, rng);
    }
    case CoreQueueKind::Sfq:
      return std::make_unique<net::SfqQueue>(q.sfq_bands,
                                             std::max<std::size_t>(2, capacity / q.sfq_bands));
    case CoreQueueKind::Wfq:
      return std::make_unique<net::WfqQueue>(capacity, weight_of);
    case CoreQueueKind::DropTail:
      break;
  }
  return std::make_unique<net::DropTailQueue>(capacity);
}

std::unique_ptr<net::PacketQueue> drop_tail(net::NodeId /*from*/, std::size_t capacity) {
  return std::make_unique<net::DropTailQueue>(capacity);
}

/// The nodes of a built topology, and each core link's forward direction.
struct Fabric {
  std::vector<net::NodeId> routers;
  std::vector<net::Link*> forward_of_link;  ///< topo.links[i] in its a -> b direction
  std::vector<net::NodeId> src_node;        ///< one per entry of topo.sources
  std::vector<net::NodeId> dst_node;        ///< one per entry of topo.sinks
};

/// Build `topo` into `network` and route it: routers (router i on LP
/// lp_of_router[i], or 0 if empty), both directions of every core link
/// (the forward one if simplex) with the queue make_queue(from,
/// capacity) returns, then one attach node per source and sink entry on
/// a drop-tail access link.  A link's own LinkParams override the
/// topology's rate, delay and queue size.  Builds of one description
/// create everything in the same order, so they route identically.
template <typename MakeQueue>
Fabric build_fabric(net::Network& network, const GeneratedTopology& topo,
                    std::span<const std::uint32_t> lp_of_router, MakeQueue&& make_queue) {
  Fabric fab;
  fab.routers.reserve(topo.routers);
  for (std::size_t i = 0; i < topo.routers; ++i) {
    fab.routers.push_back(network.add_node("R" + std::to_string(i),
                                           lp_of_router.empty() ? 0u : lp_of_router[i]));
  }
  // a -> b, then b -> a unless simplex; returns the a -> b direction.
  auto connect = [&](net::NodeId a, net::NodeId b, const LinkParams& p, sim::Rate rate,
                     auto&& queue) -> net::Link& {
    rate = p.rate.value_or(rate);
    const sim::TimeDelta delay = p.delay.value_or(topo.cfg.link_delay);
    const std::size_t cap = p.queue_packets.value_or(topo.cfg.queue_capacity_packets);
    net::Link& ab = network.connect_with_queue(a, b, rate, delay, queue(a, cap));
    if (!p.simplex) network.connect_with_queue(b, a, rate, delay, queue(b, cap));
    return ab;
  };
  fab.forward_of_link.reserve(topo.links.size());
  for (const GenLink& l : topo.links) {
    fab.forward_of_link.push_back(
        &connect(fab.routers[l.a], fab.routers[l.b], l.own, topo.cfg.core_rate, make_queue));
  }
  auto own = [](const std::vector<LinkParams>& v, std::size_t i) {
    return i < v.size() ? v[i] : LinkParams{};
  };
  for (std::size_t i = 0; i < topo.sources.size(); ++i) {
    const net::NodeId r = fab.routers[topo.sources[i]];
    fab.src_node.push_back(network.add_node("S" + std::to_string(i), network.lp_of(r)));
    connect(fab.src_node.back(), r, own(topo.source_links, i), topo.cfg.access_rate, drop_tail);
  }
  for (std::size_t i = 0; i < topo.sinks.size(); ++i) {
    const net::NodeId r = fab.routers[topo.sinks[i]];
    fab.dst_node.push_back(network.add_node("D" + std::to_string(i), network.lp_of(r)));
    connect(r, fab.dst_node.back(), own(topo.sink_links, i), topo.cfg.access_rate, drop_tail);
  }
  network.build_routes();
  return fab;
}

/// Per-flow constraint sets for the water-filling oracle: the links
/// each flow's FIB path crosses, dense-indexed in the order first met,
/// with capacities in pkt/s of the topology's packet size.
struct ConstraintSets {
  std::vector<double> caps;
  std::vector<std::vector<std::uint32_t>> links;  ///< parallel to the flows
};

/// Walk every flow's path once.  Shared access links participate too —
/// fat by construction, they never bind in the water-filling.  An access
/// link that only one flow uses (the paper chain's per-flow attach
/// nodes) is no fair-share constraint and no contended hop for the fluid
/// agreement band, so it is left out.
ConstraintSets constraint_sets(net::Network& network, const Fabric& fab,
                               const GeneratedTopology& topo, const std::vector<GenFlow>& flows) {
  ConstraintSets sets;
  sets.links.resize(flows.size());
  std::vector<std::uint32_t> src_flows(fab.src_node.size(), 0);
  std::vector<std::uint32_t> dst_flows(fab.dst_node.size(), 0);
  for (const GenFlow& f : flows) {
    ++src_flows[f.src_attach];
    ++dst_flows[f.dst_attach];
  }
  std::unordered_map<const net::Link*, std::uint32_t> link_index;
  for (std::size_t fi = 0; fi < flows.size(); ++fi) {
    const GenFlow& f = flows[fi];
    const std::vector<net::NodeId> hops =
        network.path(fab.src_node[f.src_attach], fab.dst_node[f.dst_attach]);
    for (std::size_t h = 0; h + 1 < hops.size(); ++h) {
      const bool lone_access = (h == 0 && src_flows[f.src_attach] < 2) ||
                               (h + 2 == hops.size() && dst_flows[f.dst_attach] < 2);
      const net::Link* l = network.find_link(hops[h], hops[h + 1]);
      if (l == nullptr || lone_access) continue;
      auto [it, inserted] = link_index.emplace(l, static_cast<std::uint32_t>(sets.caps.size()));
      if (inserted) sets.caps.push_back(l->rate().pps(topo.cfg.packet_size));
      sets.links[fi].push_back(it->second);
    }
  }
  return sets;
}

/// Flow `id`'s minimum-rate contract in `spec` (0 = none).
double min_rate_of(const ScenarioSpec& spec, net::FlowId id) {
  const std::size_t i = id - 1;
  return i < spec.min_rates.size() ? spec.min_rates[i] : 0.0;
}

/// True iff a flow with these windows is active at t_sec (an empty list
/// means always-on) — the auditor's activity rule.
bool active_at(const std::vector<net::ActiveInterval>& windows, double t_sec) {
  if (windows.empty()) return true;
  for (const auto& iv : windows) {
    if (t_sec >= iv.start.sec() && t_sec < iv.stop.sec()) return true;
  }
  return false;
}

/// `flows` is read only while wiring: every component that needs a
/// flow's fields past that point keeps its own copy (the edges' FlowSpec,
/// the tracker's weight, the fluid controller's and auditor's entries)
/// or, like the auditor's activity oracle, takes it over, so the
/// population is freed before the run starts.
ScenarioResult run_topology(const ScenarioSpec& spec, const GeneratedTopology& topo,
                            std::vector<GenFlow> flows, bool record_series) {
  assert(topo.routers > 0 && topo.connected() && "topology must be connected");
  const MechanismRow& row = mechanism_row(spec.mechanism);

  // LP partition over the router graph: cut preferentially at the
  // designated bottleneck links, lookahead = min own propagation delay
  // over the cut set.  Attach nodes are co-located with their router, so
  // only router-router links can cross LPs.
  sim::par::LpPlan plan;
  if (spec.lp > 1) {
    std::vector<bool> is_bottleneck(topo.links.size(), false);
    for (std::size_t idx : topo.bottlenecks) {
      if (idx < is_bottleneck.size()) is_bottleneck[idx] = true;
    }
    sim::par::LpGraph g;
    g.nodes = topo.routers;
    g.edges.reserve(topo.links.size());
    for (std::size_t i = 0; i < topo.links.size(); ++i) {
      const GenLink& l = topo.links[i];
      g.edges.push_back(
          {l.a, l.b, l.own.delay.value_or(topo.cfg.link_delay).sec(), is_bottleneck[i]});
    }
    plan = sim::par::partition_lp_graph(g, spec.lp);
    if (plan.zero_lookahead_fallback) {
      std::fprintf(stderr,
                   "corelite: --lp %zu requires positive link delay for lookahead; "
                   "falling back to the serial engine\n",
                   spec.lp);
    } else if (plan.lp_count < plan.requested) {
      std::fprintf(stderr,
                   "corelite: --lp %zu clamped to %zu LPs (topology has %zu routers)\n",
                   spec.lp, plan.lp_count, topo.routers);
    }
  }
  const bool lp_mode = plan.lp_count > 1;

  // Fluid fast-forward rides the single serial engine clock; the LP
  // engine's barrier windows have no notion of a shared experiment-time
  // offset, so lp > 1 falls back to pure packet mode.
  sim::fluid::FluidConfig fluid_cfg = spec.fluid;
  if (fluid_cfg.enabled && lp_mode) {
    std::fprintf(stderr,
                 "corelite: fluid fast-forward is serial-only; running --lp %zu in pure "
                 "packet mode\n",
                 spec.lp);
    fluid_cfg.enabled = false;
  }
  const bool fluid_on = fluid_cfg.enabled;

  // The fairness audit follows the same serial-only rule: its sampler
  // adds engine events (the audit-on/off digest split documented in
  // ScenarioSpec::audit) and its gauges read live link/core state.
  telemetry::FairnessAuditConfig audit_cfg = spec.audit;
  if (audit_cfg.enabled && lp_mode) {
    std::fprintf(stderr,
                 "corelite: the fairness audit is not supported with --lp > 1; "
                 "skipping the auditor for this run\n");
    audit_cfg.enabled = false;
  }
  const bool audit_on = audit_cfg.enabled;

  sim::par::LpRuntime lp_rt{plan.lp_count, spec.seed, plan.lookahead, spec.lp_threads};
  if (spec.lp_probe != nullptr) lp_rt.set_probe(spec.lp_probe);
  sim::Simulator& simulator = lp_rt.lp_sim(0);
  std::unique_ptr<sim::fluid::TimeWarp> warp;
  if (fluid_on) warp = std::make_unique<sim::fluid::TimeWarp>(simulator);
  net::Network network{lp_rt};

  net::WfqQueue::WeightFn weight_of;
  if (row.queue == CoreQueueKind::Wfq) {
    // The stateful reference: cores know every flow's weight.
    std::vector<double> w(flows.size() + 1, 1.0);
    for (const GenFlow& f : flows) w[f.id] = f.weight;
    weight_of = [w = std::move(w)](net::FlowId f) { return f < w.size() ? w[f] : 1.0; };
  }

  // Routers, the discipline-bearing core links (both directions), then
  // the attach nodes: drop-tail access pipes, one per entry of
  // topo.sources (hosting that entry's multi-flow edge) and topo.sinks.
  std::span<const std::uint32_t> lp_of_router;  // empty: every router on LP 0
  if (lp_mode) lp_of_router = plan.lp_of_node;
  const Fabric fab =
      build_fabric(network, topo, lp_of_router, [&](net::NodeId from, std::size_t capacity) {
        return make_core_queue(row.queue, spec.topology, capacity, network.local_rng(from),
                               weight_of);
      });
  std::vector<net::Link*> bottleneck_links;
  bottleneck_links.reserve(topo.bottlenecks.size());
  for (std::size_t idx : topo.bottlenecks) bottleneck_links.push_back(fab.forward_of_link.at(idx));

  ScenarioResult result;
  stats::FlowTracker& tracker = result.tracker;
  tracker.set_series_enabled(record_series);
  net::FlowId max_id = 0;
  for (const GenFlow& f : flows) max_id = std::max(max_id, f.id);
  tracker.reserve(std::size_t{max_id} + 1);

  if (spec.control_loss_rate > 0.0) {
    for (const auto& link : network.links()) {
      link->set_control_loss_rate(spec.control_loss_rate);
    }
  }

  // Drop timing on the designated bottleneck links.  In LP mode each
  // recorder gets a private sink (its link's LP is the only writer);
  // merged and time-sorted after the run.
  std::vector<std::unique_ptr<DropRecorder>> drop_recorders;
  std::deque<std::vector<double>> lp_drop_sinks;
  for (net::Link* l : bottleneck_links) {
    if (l == nullptr) continue;
    auto rec = std::make_unique<DropRecorder>();
    rec->link = l;
    if (lp_mode) {
      lp_drop_sinks.emplace_back();
      rec->sink = &lp_drop_sinks.back();
    } else {
      rec->sink = &result.drop_times;
    }
    l->add_observer(rec.get(), net::Link::kObserveDrop);
    drop_recorders.push_back(std::move(rec));
  }

  // Mechanism wiring, of the kinds the table row names.  Core machinery
  // goes on EVERY router (cores[i] sits on routers[i]); edge router i
  // sits on source attach node i and carries every flow entering there.
  // Iteration order (attach nodes in topology order, then flows in id
  // order) is deterministic, so RNG draw order — and the digest — is too.
  std::vector<std::unique_ptr<qos::CoreliteCoreRouter>> cl_cores;
  std::vector<std::unique_ptr<csfq::CsfqCoreRouter>> csfq_cores;
  std::vector<std::unique_ptr<qos::EcnCoreRouter>> ecn_cores;
  std::vector<std::unique_ptr<csfq::LossNotifyingCoreRouter>> loss_cores;
  auto wire_cores = [&](auto& cores, const auto&... cfg) {
    using Core = typename std::decay_t<decltype(cores)>::value_type::element_type;
    for (net::NodeId r : fab.routers) cores.push_back(std::make_unique<Core>(network, r, cfg...));
  };
  switch (row.core) {
    case CoreKind::Corelite: wire_cores(cl_cores, spec.corelite); break;
    case CoreKind::Csfq: wire_cores(csfq_cores, spec.csfq); break;
    case CoreKind::Ecn: wire_cores(ecn_cores, spec.corelite); break;
    case CoreKind::LossNotifying: wire_cores(loss_cores); break;
  }

  std::vector<std::unique_ptr<qos::CoreliteEdgeRouter>> cl_edges;
  std::vector<std::unique_ptr<csfq::CsfqEdgeRouter>> csfq_edges;
  auto flow_spec_of = [&](const GenFlow& f) {
    net::FlowSpec fs;
    fs.id = f.id;
    fs.ingress = fab.src_node[f.src_attach];
    fs.egress = fab.dst_node[f.dst_attach];
    fs.weight = f.weight;
    fs.active = f.windows;
    fs.min_rate_pps = min_rate_of(spec, f.id);
    const std::size_t i = f.id - 1;
    if (i < spec.flood_pps.size()) fs.flood_pps = spec.flood_pps[i];
    return fs;
  };
  auto wire_edges = [&](auto& edges, const auto& cfg) {
    using Edge = typename std::decay_t<decltype(edges)>::value_type::element_type;
    for (net::NodeId n : fab.src_node) {
      edges.push_back(std::make_unique<Edge>(network, n, cfg, &tracker));
      if (warp) edges.back()->set_fluid_warp(warp.get());
    }
    for (const GenFlow& f : flows) edges[f.src_attach]->add_flow(flow_spec_of(f));
  };
  switch (row.edge) {
    case EdgeKind::Corelite: wire_edges(cl_edges, spec.corelite); break;
    case EdgeKind::Csfq: wire_edges(csfq_edges, spec.csfq); break;
  }

  // Egress sinks: count deliveries with one-way delay measured from the
  // edge's emission timestamp; an ECN row's sink also echoes marked
  // packets back as unweighted feedback.  Each sink reads its own node's
  // clock — the sink LP's simulator in LP mode (the single writer of
  // its flows' delivery counters), the one global simulator serially.
  std::vector<std::unique_ptr<qos::EcnEgressAgent>> ecn_agents;
  for (net::NodeId n : fab.dst_node) {
    qos::EcnEgressAgent* agent = nullptr;
    if (row.ecn_egress) {
      ecn_agents.push_back(std::make_unique<qos::EcnEgressAgent>(network, n));
      agent = ecn_agents.back().get();
    }
    network.node(n).set_local_sink(
        [&tracker, &snk_sim = network.local_sim(n), agent](net::Packet&& p) {
          if (!p.is_data()) return;
          tracker.on_delivered(p.flow, snk_sim.now() - p.created);
          if (agent != nullptr) agent->on_data(p);
        });
  }

  // Per-flow constraint sets, shared by the fluid controller and the
  // fairness auditor.  Only built when one of them runs: on a 100k-flow
  // population they cost one vector per flow.
  ConstraintSets sets;
  if (fluid_on || audit_on) sets = constraint_sets(network, fab, topo, flows);

  // Fluid fast-forward controller: watches per-flow throughput EWMAs and,
  // once every flow sits inside the convergence band for the dwell
  // window AND the measured rates agree with the analytic water-filling
  // allocation, compresses the experiment timeline (simulator.exp_now()
  // jumps ahead of the engine clock; the warp registry caps each jump at
  // the next activity-window boundary).
  std::unique_ptr<sim::fluid::FluidController> fluid_ctl;
  if (fluid_on) {
    fluid_cfg.synth_sample_period = spec.cumulative_sample_period;
    fluid_ctl = std::make_unique<sim::fluid::FluidController>(simulator, *warp, tracker,
                                                              fluid_cfg, spec.duration);
    fluid_ctl->set_link_capacities(sets.caps);
    for (std::size_t fi = 0; fi < flows.size(); ++fi) {
      fluid_ctl->add_flow(flows[fi].id, flows[fi].weight, sets.links[fi],
                          min_rate_of(spec, flows[fi].id));
    }
    if (spec.fluid_probe != nullptr) fluid_ctl->set_probe(spec.fluid_probe);
    fluid_ctl->start();
  }

  // Queue-length sampling on the bottleneck links.  Serially one timer
  // samples them all; in LP mode each link is sampled by a timer on its
  // from-router's LP (the link's single-threaded owner).
  result.queue_series.resize(bottleneck_links.size());
  std::vector<sim::PeriodicHandle> samplers;
  if (!lp_mode) {
    samplers.push_back(simulator.every(sim::TimeDelta::millis(100), [&] {
      for (std::size_t i = 0; i < bottleneck_links.size(); ++i) {
        if (bottleneck_links[i] != nullptr) {
          result.queue_series[i].add(
              simulator.exp_now().sec(),
              static_cast<double>(bottleneck_links[i]->queued_data_packets()));
        }
      }
    }));
  } else {
    for (std::size_t lp = 0; lp < plan.lp_count; ++lp) {
      std::vector<std::size_t> owned;
      for (std::size_t i = 0; i < topo.bottlenecks.size(); ++i) {
        if (bottleneck_links[i] == nullptr) continue;
        const std::uint32_t from_router = topo.links[topo.bottlenecks[i]].a;
        if (plan.lp_of_node[from_router] == lp) owned.push_back(i);
      }
      if (owned.empty()) continue;
      sim::Simulator& lsim = lp_rt.lp_sim(lp);
      samplers.push_back(lsim.every(
          sim::TimeDelta::millis(100), [&result, &bottleneck_links, &lsim, owned] {
            for (std::size_t i : owned) {
              result.queue_series[i].add(
                  lsim.now().sec(),
                  static_cast<double>(bottleneck_links[i]->queued_data_packets()));
            }
          }));
    }
  }

  // Periodic cumulative-service sampling (Figure 4's series).  The LP
  // variant gives each egress (sink-router) LP a sample clock of its own
  // for its flows, so each clock and its series have one writer — the
  // same LP that bumps the flows' delivered counters.  The clocks exist
  // before the first (global) sample, which lands on every clock.  Each
  // ingress LP likewise gets a rate clock for the flows its edges pace.
  if (!lp_mode) {
    samplers.push_back(simulator.every(spec.cumulative_sample_period, [&tracker, &simulator] {
      tracker.sample_cumulative(simulator.exp_now());
    }));
  } else {
    if (record_series) {
      std::vector<std::vector<net::FlowId>> paced(plan.lp_count);
      for (const GenFlow& f : flows) paced[plan.lp_of_node[f.src_router]].push_back(f.id);
      for (const auto& ids : paced) {
        if (!ids.empty()) tracker.add_rate_clock(ids);
      }
    }
    for (std::size_t lp = 0; lp < plan.lp_count; ++lp) {
      std::vector<net::FlowId> owned;
      for (const GenFlow& f : flows) {
        if (plan.lp_of_node[f.dst_router] == lp) owned.push_back(f.id);
      }
      if (owned.empty()) continue;
      std::sort(owned.begin(), owned.end());
      const std::size_t clock = tracker.add_sample_clock(owned);
      sim::Simulator& lsim = lp_rt.lp_sim(lp);
      samplers.push_back(lsim.every(spec.cumulative_sample_period, [&tracker, &lsim, clock] {
        tracker.sample_cumulative(lsim.now(), clock);
      }));
    }
  }
  tracker.sample_cumulative(simulator.exp_now());

  // Fairness auditor (opt-in, serial-only — audit_on already folds in
  // the lp_mode fallback).  The oracle runs over the same per-path
  // constraint sets the fluid controller uses; gauges watch the
  // bottleneck links' occupancy and, under CSFQ cores, their fair-share
  // estimate α.
  std::unique_ptr<telemetry::FairnessAuditor> auditor;
  if (audit_on) {
    std::vector<telemetry::FairnessAuditor::FlowInfo> audit_flows;
    audit_flows.reserve(flows.size());
    for (std::size_t fi = 0; fi < flows.size(); ++fi) {
      audit_flows.push_back(
          {flows[fi].id, flows[fi].weight, sets.links[fi], min_rate_of(spec, flows[fi].id)});
    }
    // Activity oracle over the flows' windows — the same ground truth
    // the edges schedule from.  It takes the windows over from the
    // population, which is freed below (ids are 1-based and unique by
    // construction; an id the oracle does not know counts as active).
    std::vector<std::vector<net::ActiveInterval>> act_of(flows.size() + 1);
    for (GenFlow& f : flows) {
      if (f.id < act_of.size()) act_of[f.id] = std::move(f.windows);
    }
    auto active_fn = [act_of = std::move(act_of)](net::FlowId id, double t_sec) {
      return id >= act_of.size() || active_at(act_of[id], t_sec);
    };
    auditor = std::make_unique<telemetry::FairnessAuditor>(
        audit_cfg, tracker, sets.caps, std::move(audit_flows), std::move(active_fn));
    for (std::size_t i = 0; i < bottleneck_links.size(); ++i) {
      net::Link* l = bottleneck_links[i];
      if (l == nullptr) continue;
      auditor->add_gauge("queue.bottleneck" + std::to_string(i), [l]() -> double {
        return static_cast<double>(l->queued_data_packets());
      });
    }
    for (std::size_t i = 0; i < bottleneck_links.size() && !csfq_cores.empty(); ++i) {
      if (bottleneck_links[i] == nullptr) continue;
      const GenLink& gl = topo.links[topo.bottlenecks[i]];
      const csfq::CsfqCoreRouter* core = csfq_cores[gl.a].get();
      auditor->add_gauge("csfq.alpha.bottleneck" + std::to_string(i),
                         [core, to = fab.routers[gl.b]]() -> double {
                           const auto* pol = core->policy_for(to);
                           return pol != nullptr ? pol->alpha() : 0.0;
                         });
    }
    samplers.push_back(simulator.every(audit_cfg.window, [&simulator, aud = auditor.get()] {
      aud->on_window(simulator.exp_now());
    }));
  }

  // Wiring is done: free the setup-only population before the run (on
  // gen-pl8-100000 its records and window lists hold about 12 MB).
  std::vector<GenFlow>{}.swap(flows);

  // Telemetry hook last, so collectors see the fully wired network.
  // Collector callbacks are not thread-safe, so the hook is serial-only.
  if (spec.instrument) {
    if (lp_mode) {
      std::fprintf(stderr,
                   "corelite: telemetry instrumentation is not supported with --lp > 1; "
                   "skipping collectors for this run\n");
    } else {
      spec.instrument(network, bottleneck_links);
    }
  }

  if (fluid_on) {
    // Each fast-forward jump stop()s the engine so the offset bump takes
    // effect between events; resume until experiment time reaches the
    // requested duration (engine deadline shrinks by the skipped span).
    while (simulator.now() < spec.duration - simulator.exp_offset()) {
      simulator.run_until(spec.duration - simulator.exp_offset());
    }
  } else {
    lp_rt.run_until(spec.duration);
  }
  for (auto& s : samplers) s.cancel();
  tracker.sample_cumulative(simulator.exp_now());
  if (lp_mode) {
    for (const auto& sink : lp_drop_sinks) {
      result.drop_times.insert(result.drop_times.end(), sink.begin(), sink.end());
    }
    std::sort(result.drop_times.begin(), result.drop_times.end());
  }

  // Global accounting.
  result.events_processed = lp_rt.events_processed();
  if (fluid_ctl) result.fluid_stats = fluid_ctl->stats();
  if (auditor) {
    result.audit_report = std::make_unique<telemetry::FairnessAuditReport>(auditor->take_report());
  }
  result.unrouteable = network.unrouteable_count();
  for (net::NodeId r : fab.routers) {
    std::size_t state = 0;
    for (net::Link* l : network.node(r).out_links()) {
      state += l->queue().flow_state_entries();
    }
    result.core_flow_state = std::max(result.core_flow_state, state);
  }
  for (const auto& link : network.links()) result.total_data_drops += link->stats().dropped;
  // Drops synthesized during fast-forwarded spans never cross a link,
  // so fold them into the global count here (congested_link_drops stays
  // a pure link-level observation).
  result.total_data_drops += result.fluid_stats.synth_dropped;
  for (net::Link* l : bottleneck_links) {
    if (l != nullptr) result.congested_link_drops += l->stats().dropped;
  }
  for (const auto& e : cl_edges) result.markers_injected += e->markers_injected();
  for (const auto& e : cl_edges) result.feedback_messages += e->feedback_received();
  for (const auto& e : csfq_edges) result.feedback_messages += e->loss_notices_received();
  // Mean q_avg per bottleneck link, from the Corelite cores' diagnostics.
  for (std::size_t i = 0; i < bottleneck_links.size() && !cl_cores.empty(); ++i) {
    const GenLink& gl = topo.links[topo.bottlenecks[i]];
    for (const auto& d : cl_cores[gl.a]->diagnostics()) {
      if (d.link_to == fab.routers[gl.b] && !d.q_avg.empty()) {
        result.mean_q_avg.push_back(d.q_avg.average_to(spec.duration.sec()));
      }
    }
  }
  sim::flush_hotpath_counters();
  return result;
}

/// The paper flows of a spec on the chain: flow i+1 enters at source
/// attach node i and leaves at sink attach node i.
std::vector<GenFlow> paper_flows(const ScenarioSpec& spec, const GeneratedTopology& chain) {
  std::vector<GenFlow> flows(spec.num_flows);
  for (std::size_t i = 0; i < spec.num_flows; ++i) {
    GenFlow& f = flows[i];
    f.id = static_cast<net::FlowId>(i + 1);
    f.src_attach = f.dst_attach = static_cast<std::uint32_t>(i);
    f.src_router = chain.sources[i];
    f.dst_router = chain.sinks[i];
    f.weight = spec.weights.at(i);
    // An empty window list means always-on.
    if (i < spec.activity.size() && !spec.activity[i].empty()) {
      f.windows = spec.activity[i];
    } else {
      f.windows = {{sim::SimTime::zero(), sim::SimTime::infinite()}};
    }
  }
  return flows;
}

/// Call f(topology, flows, record_series) with the network description
/// and flow population `spec` runs: the generated topology and its fixed
/// flow list or a population generated from spec.seed, or the paper
/// chain and the spec's own flows.  A generated or paper population is
/// handed over as a temporary, so an `f` taking it by value owns it
/// without a copy; a script's fixed list is copied into such an `f`.
template <typename F>
decltype(auto) with_population(const ScenarioSpec& spec, F&& f) {
  if (spec.generated.has_value()) {
    const GeneratedWorkload& wl = *spec.generated;
    assert(spec.num_flows == wl.flows.num_flows &&
           "spec.num_flows must mirror generated->flows.num_flows");
    if (!wl.fixed_flows.empty()) return f(wl.topology, wl.fixed_flows, wl.flows.record_series);
    // The population is a pure function of (topology, config, duration,
    // seed): sweep workers regenerate it independently and still land on
    // bit-identical run digests.
    return f(wl.topology, generate_flows(wl.topology, wl.flows, spec.duration.sec(), spec.seed),
             wl.flows.record_series);
  }
  assert(spec.weights.size() == spec.num_flows && "one weight per flow required");
  const GeneratedTopology chain = make_paper_chain(spec.topology, spec.num_flows);
  return f(chain, paper_flows(spec, chain), /*record_series=*/true);
}

}  // namespace

ScenarioResult run_paper_scenario(const ScenarioSpec& spec) {
  return with_population(spec, [&spec](const GeneratedTopology& topo, std::vector<GenFlow> flows,
                                        bool record_series) {
    return run_topology(spec, topo, std::move(flows), record_series);
  });
}

std::unordered_map<net::FlowId, double> ideal_rates_at(const ScenarioSpec& spec, sim::SimTime t) {
  return with_population(spec, [&spec, t](const GeneratedTopology& topo,
                                          const std::vector<GenFlow>& flows, bool) {
    // The runner's fabric over drop-tail queues: same nodes, same order,
    // so the same routes and constraint sets the run itself audits.
    sim::Simulator simulator;
    net::Network network{simulator};
    const Fabric fab = build_fabric(network, topo, {}, drop_tail);
    ConstraintSets sets = constraint_sets(network, fab, topo, flows);
    std::vector<net::FlowId> ids;
    std::vector<sim::fluid::AllocFlow> active;
    for (std::size_t fi = 0; fi < flows.size(); ++fi) {
      const GenFlow& f = flows[fi];
      if (!active_at(f.windows, t.sec())) continue;
      ids.push_back(f.id);
      active.push_back({f.weight, std::numeric_limits<double>::infinity(),
                        std::move(sets.links[fi]), min_rate_of(spec, f.id)});
    }
    const std::vector<double> rates = sim::fluid::water_fill(sets.caps, active);
    std::unordered_map<net::FlowId, double> ideal;
    ideal.reserve(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) ideal.emplace(ids[i], rates[i]);
    return ideal;
  });
}

SteadyStateScore steady_state_score(const ScenarioSpec& spec, const ScenarioResult& r, double w0,
                                    double w1, sim::SimTime probe) {
  const auto oracle = ideal_rates_at(spec, probe);
  const double t_end = spec.duration.sec();
  SteadyStateScore score;
  score.avg_rate.resize(spec.num_flows, 0.0);
  score.ideal.resize(spec.num_flows, 0.0);
  std::vector<double> rates;
  std::vector<double> ideals;
  for (std::size_t i = 0; i < spec.num_flows; ++i) {
    const auto f = static_cast<net::FlowId>(i + 1);
    const auto& fs = r.tracker.series(f);
    score.avg_rate[i] = !fs.allotted_rate.empty()
                            ? fs.allotted_rate.average_over(w0, w1)
                            : static_cast<double>(fs.delivered) / t_end;
    const auto it = oracle.find(f);
    if (it != oracle.end()) score.ideal[i] = it->second;
    if (score.ideal[i] > 0.0) {
      rates.push_back(score.avg_rate[i]);
      ideals.push_back(score.ideal[i]);
    }
  }
  score.jain = stats::jain_index(rates, ideals);
  return score;
}

}  // namespace corelite::scenario
