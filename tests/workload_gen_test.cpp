// Tests for the generated-workload subsystem: topology generators,
// flow-population generation, the gen-* scenario names and the
// generated-scenario runner.
//
// The digest goldens pin the exact FNV-1a value of each generator's
// output: they fail loudly if a generator's output changes AT ALL,
// which is the determinism contract sweeps rely on (workers regenerate
// populations independently and must land on bit-identical workloads).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "net/flow.h"
#include "runner/sweep.h"
#include "scenario/flow_gen.h"
#include "scenario/scenario.h"
#include "scenario/topology_gen.h"

namespace sc = corelite::scenario;
namespace rn = corelite::runner;

// ---------------------------------------------------------------------------
// Topology generators.

TEST(TopologyGen, ParkingLotShape) {
  const auto t = sc::make_parking_lot(8);
  EXPECT_EQ(t.name, "pl8");
  EXPECT_EQ(t.routers, 9u);
  EXPECT_EQ(t.links.size(), 8u);
  EXPECT_EQ(t.bottlenecks.size(), 8u);  // every chain link
  EXPECT_EQ(t.sources.size(), 8u);
  EXPECT_EQ(t.sinks.size(), 8u);
  EXPECT_TRUE(t.connected());
}

TEST(TopologyGen, FatTreeShape) {
  const std::size_t k = 4;
  const auto t = sc::make_fat_tree(k);
  EXPECT_EQ(t.name, "ft4");
  // (k/2)^2 cores + k pods x (k/2 agg + k/2 edge).
  EXPECT_EQ(t.routers, (k / 2) * (k / 2) + k * k);
  // Each pod: k/2 aggs x k/2 core uplinks + k/2 edges x k/2 agg links.
  EXPECT_EQ(t.links.size(), k * 2 * (k / 2) * (k / 2));
  EXPECT_EQ(t.bottlenecks.size(), k * (k / 2) * (k / 2));  // agg-core tier
  EXPECT_EQ(t.sources.size(), k * (k / 2));                // the edge routers
  EXPECT_EQ(t.sinks.size(), k * (k / 2));
  EXPECT_TRUE(t.connected());
}

TEST(TopologyGen, IspConnectedWithChords) {
  const auto t = sc::make_isp(32, 7);
  EXPECT_EQ(t.name, "isp32");
  EXPECT_EQ(t.routers, 32u);
  EXPECT_GE(t.links.size(), 31u);  // spanning tree at minimum
  EXPECT_TRUE(t.connected());
  EXPECT_FALSE(t.bottlenecks.empty());
  EXPECT_EQ(t.sources.size(), 32u);
  for (std::size_t idx : t.bottlenecks) EXPECT_LT(idx, t.links.size());
}

TEST(TopologyGen, IspDeterministicInSeed) {
  const auto a = sc::make_isp(32, 7);
  const auto b = sc::make_isp(32, 7);
  const auto c = sc::make_isp(32, 8);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_NE(a.digest(), c.digest());
}

TEST(TopologyGen, DigestCoversLinkParameters) {
  const auto base = sc::make_parking_lot(3);
  sc::TopologyGenConfig cfg;
  cfg.queue_capacity_packets = 80;
  const auto tweaked = sc::make_parking_lot(3, cfg);
  EXPECT_NE(base.digest(), tweaked.digest());
}

// Golden digests: the exact output of each generator family is pinned.
// A change here means every previously published generated-scenario
// result is invalidated — bump deliberately, never casually.
TEST(TopologyGen, DigestGoldens) {
  EXPECT_EQ(sc::make_parking_lot(8).digest(), 6236516109183052463ULL);
  EXPECT_EQ(sc::make_fat_tree(4).digest(), 11096844073701037376ULL);
  EXPECT_EQ(sc::make_isp(32, 7).digest(), 16569675608704102840ULL);
}

// ---------------------------------------------------------------------------
// Flow-population generation.

TEST(FlowGen, SameSeedByteIdentical) {
  const auto topo = sc::make_parking_lot(8);
  sc::FlowGenConfig cfg;
  cfg.num_flows = 200;
  const auto a = sc::generate_flows(topo, cfg, 80.0, 42);
  const auto b = sc::generate_flows(topo, cfg, 80.0, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].src_router, b[i].src_router);
    EXPECT_EQ(a[i].dst_router, b[i].dst_router);
    EXPECT_EQ(a[i].weight, b[i].weight);
    ASSERT_EQ(a[i].windows.size(), b[i].windows.size());
    for (std::size_t w = 0; w < a[i].windows.size(); ++w) {
      EXPECT_EQ(a[i].windows[w].start.sec(), b[i].windows[w].start.sec());
      EXPECT_EQ(a[i].windows[w].stop.sec(), b[i].windows[w].stop.sec());
    }
  }
  EXPECT_EQ(sc::flows_digest(a), sc::flows_digest(b));
  EXPECT_NE(sc::flows_digest(a), sc::flows_digest(sc::generate_flows(topo, cfg, 80.0, 43)));
}

TEST(FlowGen, PopulationsAreValidOnEveryFamily) {
  const std::vector<sc::GeneratedTopology> topos{
      sc::make_parking_lot(4), sc::make_fat_tree(4), sc::make_isp(16, 7)};
  for (const auto& topo : topos) {
    sc::FlowGenConfig cfg;
    cfg.num_flows = 300;
    const auto flows = sc::generate_flows(topo, cfg, 80.0, 1);
    ASSERT_EQ(flows.size(), cfg.num_flows);
    const std::set<std::uint32_t> sources(topo.sources.begin(), topo.sources.end());
    const std::set<std::uint32_t> sinks(topo.sinks.begin(), topo.sinks.end());
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const auto& f = flows[i];
      EXPECT_EQ(f.id, static_cast<corelite::net::FlowId>(i + 1));  // dense, 1-based
      EXPECT_TRUE(sources.count(f.src_router) == 1) << topo.name;
      EXPECT_TRUE(sinks.count(f.dst_router) == 1) << topo.name;
      EXPECT_NE(f.src_router, f.dst_router) << topo.name;
      EXPECT_EQ(f.weight, cfg.weight_cycle[i % cfg.weight_cycle.size()]);
      EXPECT_FALSE(f.windows.empty());
      EXPECT_LE(f.windows.size(), cfg.max_windows);
      EXPECT_TRUE(corelite::net::valid_activity_windows(f.windows)) << topo.name;
    }
  }
}

TEST(FlowGen, NonChurnFlowsRunToTheEnd) {
  sc::FlowGenConfig cfg;
  cfg.num_flows = 50;
  cfg.churn = false;
  const auto flows = sc::generate_flows(sc::make_parking_lot(3), cfg, 80.0, 1);
  for (const auto& f : flows) {
    ASSERT_EQ(f.windows.size(), 1u);
    EXPECT_LT(f.windows[0].start.sec(), 80.0);
    EXPECT_EQ(f.windows[0].stop, corelite::sim::SimTime::infinite());
  }
}

TEST(FlowGen, DigestGolden) {
  sc::FlowGenConfig cfg;
  cfg.num_flows = 100;
  const auto flows = sc::generate_flows(sc::make_parking_lot(8), cfg, 80.0, 1);
  EXPECT_EQ(sc::flows_digest(flows), 11560722300537787670ULL);
}

// ---------------------------------------------------------------------------
// Scenario names and sweep composition.

TEST(GenScenarioNames, ParseAndReject) {
  for (const char* name : {"gen-pl8-1000", "gen-ft4-500", "gen-isp32-100"}) {
    const auto spec = sc::scenario_by_name(name, sc::Mechanism::Corelite);
    ASSERT_TRUE(spec.has_value()) << name;
    ASSERT_TRUE(spec->generated.has_value()) << name;
    EXPECT_EQ(spec->num_flows, spec->generated->flows.num_flows) << name;
    EXPECT_TRUE(spec->generated->topology.connected()) << name;
  }
  EXPECT_EQ(sc::scenario_by_name("gen-pl8-1000", sc::Mechanism::Corelite)->num_flows, 1000u);
  for (const char* bad :
       {"gen-pl0-10", "gen-pl8-0", "gen-pl8-", "gen-ft3-10", "gen-ft0-10", "gen-isp1-10",
        "gen-xx4-10", "gen-pl8", "gen-", "gen-pl8-1e3", "gen-pl-10", "gen-pl8--10"}) {
    EXPECT_FALSE(sc::scenario_by_name(bad, sc::Mechanism::Corelite).has_value()) << bad;
  }
}

TEST(GenScenarioNames, NamedIspTopologyIsStable) {
  // The name must denote ONE topology instance: only the flow
  // population varies with the run seed.
  const auto a = sc::scenario_by_name("gen-isp32-100", sc::Mechanism::Corelite);
  const auto b = sc::scenario_by_name("gen-isp32-100", sc::Mechanism::Csfq);
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(a->generated->topology.digest(), b->generated->topology.digest());
}

TEST(SweepBuildSpec, OverridesResizeGeneratedPopulation) {
  rn::RunDescriptor d;
  d.scenario = "gen-pl4-100";
  d.mechanism = sc::Mechanism::Corelite;
  d.num_flows = 37;
  d.weights = {1.0, 4.0};
  d.duration_sec = 12.0;
  d.seed = 99;
  const auto spec = rn::build_spec(d);
  ASSERT_TRUE(spec.has_value());
  ASSERT_TRUE(spec->generated.has_value());
  EXPECT_EQ(spec->num_flows, 37u);
  EXPECT_EQ(spec->generated->flows.num_flows, 37u);
  EXPECT_EQ(spec->generated->flows.weight_cycle, (std::vector<double>{1.0, 4.0}));
  EXPECT_EQ(spec->duration.sec(), 12.0);
  EXPECT_EQ(spec->seed, 99u);
}

// ---------------------------------------------------------------------------
// The generated-scenario runner.

namespace {

sc::ScenarioSpec small_gen_spec(sc::Mechanism m, const char* name = "gen-pl4-60") {
  auto spec = sc::scenario_by_name(name, m);
  EXPECT_TRUE(spec.has_value());
  spec->duration = corelite::sim::SimTime::seconds(8);
  return *spec;
}

}  // namespace

TEST(GeneratedRunner, DeterministicResultDigest) {
  const auto spec = small_gen_spec(sc::Mechanism::Corelite);
  const auto a = sc::run_paper_scenario(spec);
  const auto b = sc::run_paper_scenario(spec);
  EXPECT_EQ(rn::result_digest(a), rn::result_digest(b));
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_GT(a.events_processed, 0u);
}

TEST(GeneratedRunner, SeedChangesThePopulationAndTheRun) {
  auto spec = small_gen_spec(sc::Mechanism::Corelite);
  const auto a = sc::run_paper_scenario(spec);
  spec.seed = 2;
  const auto b = sc::run_paper_scenario(spec);
  EXPECT_NE(rn::result_digest(a), rn::result_digest(b));
}

TEST(GeneratedRunner, DeliversTrafficUnderEveryMechanismFamily) {
  for (const auto m : {sc::Mechanism::Corelite, sc::Mechanism::Csfq, sc::Mechanism::DropTail,
                       sc::Mechanism::Wfq, sc::Mechanism::EcnBit}) {
    const auto spec = small_gen_spec(m);
    const auto r = sc::run_paper_scenario(spec);
    EXPECT_EQ(r.unrouteable, 0u) << sc::mechanism_name(m);
    EXPECT_GT(r.tracker.total_delivered(), 0u) << sc::mechanism_name(m);
    EXPECT_EQ(r.tracker.flow_count(), spec.num_flows) << sc::mechanism_name(m);
    // Telemetry surface mirrors the designated bottlenecks.
    EXPECT_EQ(r.queue_series.size(), spec.generated->topology.bottlenecks.size())
        << sc::mechanism_name(m);
  }
}

TEST(GeneratedRunner, CoreStateOnlyForStatefulDisciplines) {
  const auto stateless = sc::run_paper_scenario(small_gen_spec(sc::Mechanism::Corelite));
  EXPECT_EQ(stateless.core_flow_state, 0u);
  const auto stateful = sc::run_paper_scenario(small_gen_spec(sc::Mechanism::Wfq));
  EXPECT_GT(stateful.core_flow_state, 0u);
}

TEST(GeneratedRunner, CountersOnlyModeKeepsCountersExact) {
  auto spec = small_gen_spec(sc::Mechanism::Corelite);
  const auto with_series = sc::run_paper_scenario(spec);
  spec.generated->flows.record_series = false;
  const auto counters_only = sc::run_paper_scenario(spec);
  // Same simulation, same counters — only the stored series differ.
  EXPECT_EQ(with_series.events_processed, counters_only.events_processed);
  EXPECT_EQ(with_series.total_data_drops, counters_only.total_data_drops);
  EXPECT_EQ(with_series.tracker.total_delivered(), counters_only.tracker.total_delivered());
  for (const auto& [id, fs] : counters_only.tracker.all()) {
    EXPECT_TRUE(fs.allotted_rate.empty()) << id;
    EXPECT_EQ(fs.delivered, with_series.tracker.series(id).delivered) << id;
  }
}

TEST(GeneratedRunner, InstrumentHookSeesBottleneckLinks) {
  auto spec = small_gen_spec(sc::Mechanism::Corelite);
  std::size_t seen = 0;
  spec.instrument = [&seen](corelite::net::Network&,
                            const std::vector<corelite::net::Link*>& congested) {
    seen = congested.size();
    for (const auto* l : congested) EXPECT_NE(l, nullptr);
  };
  (void)sc::run_paper_scenario(spec);
  EXPECT_EQ(seen, spec.generated->topology.bottlenecks.size());
}

TEST(GeneratedRunner, IdealRatesMatchTheAuditedFairShare) {
  // ideal_rates_at solves generated graphs over the runner's own
  // constraint sets: at an audit window's midpoint it must equal the
  // auditor's uncapped fair share for every flow.
  for (const char* name : {"gen-pl4-40-steady", "gen-ft4-40-steady", "gen-isp16-40-steady"}) {
    auto spec = sc::scenario_by_name(name, sc::Mechanism::Corelite);
    ASSERT_TRUE(spec.has_value()) << name;
    spec->duration = corelite::sim::SimTime::seconds(8);
    spec->audit.enabled = true;
    spec->audit.window = corelite::sim::TimeDelta::seconds(1);
    spec->audit.max_flows_recorded = spec->num_flows;
    const auto r = sc::run_paper_scenario(*spec);
    ASSERT_NE(r.audit_report, nullptr) << name;
    // Arrivals end at 5% of the run; take the first window after 2 s.
    const auto& windows = r.audit_report->windows;
    const auto w = std::find_if(windows.begin(), windows.end(),
                                [](const auto& win) { return win.t0_sec >= 2.0; });
    ASSERT_NE(w, windows.end()) << name;
    ASSERT_EQ(w->flows.size(), spec->num_flows) << name;
    EXPECT_EQ(w->active_flows, spec->num_flows) << name;  // steady: nobody leaves
    const double t_mid = 0.5 * (w->t0_sec + w->t1_sec);
    const auto ideal = sc::ideal_rates_at(*spec, corelite::sim::SimTime::seconds(t_mid));
    ASSERT_FALSE(ideal.empty()) << name;
    for (const auto& s : w->flows) {
      const auto it = ideal.find(s.id);
      if (!s.active) {
        EXPECT_EQ(it, ideal.end()) << name << " flow " << s.id;
        continue;
      }
      ASSERT_NE(it, ideal.end()) << name << " flow " << s.id;
      EXPECT_TRUE(std::isfinite(it->second)) << name << " flow " << s.id;
      EXPECT_GT(it->second, 0.0) << name << " flow " << s.id;
      EXPECT_NEAR(it->second, s.fair_share_pps, 1e-9 * s.fair_share_pps)
          << name << " flow " << s.id;
    }

    // Feasible on every cut the flows' paths must cross: each shared
    // access link, and the core links out of (into) each router.
    const sc::GeneratedTopology& topo = spec->generated->topology;
    const auto flows =
        sc::generate_flows(topo, spec->generated->flows, spec->duration.sec(), spec->seed);
    const double core = topo.capacity_pps();
    const double access = topo.cfg.access_rate.pps(topo.cfg.packet_size);
    std::vector<double> degree(topo.routers, 0.0);
    for (const auto& l : topo.links) {
      degree[l.a] += 1.0;
      degree[l.b] += 1.0;
    }
    std::vector<double> src_load(topo.sources.size(), 0.0);
    std::vector<double> dst_load(topo.sinks.size(), 0.0);
    std::vector<double> out_load(topo.routers, 0.0);
    std::vector<double> in_load(topo.routers, 0.0);
    for (const auto& f : flows) {
      const auto it = ideal.find(f.id);
      if (it == ideal.end()) continue;
      src_load[f.src_attach] += it->second;
      dst_load[f.dst_attach] += it->second;
      out_load[f.src_router] += it->second;
      in_load[f.dst_router] += it->second;
    }
    const double slack = 1.0 + 1e-9;
    for (double v : src_load) EXPECT_LE(v, access * slack) << name;
    for (double v : dst_load) EXPECT_LE(v, access * slack) << name;
    for (std::size_t rt = 0; rt < topo.routers; ++rt) {
      EXPECT_LE(out_load[rt], degree[rt] * core * slack) << name << " router " << rt;
      EXPECT_LE(in_load[rt], degree[rt] * core * slack) << name << " router " << rt;
    }
  }
}

TEST(GeneratedRunner, SweepExecuteRunScoresGeneratedCells) {
  rn::RunDescriptor d;
  d.scenario = "gen-pl4-60";
  d.mechanism = sc::Mechanism::Corelite;
  d.duration_sec = 8.0;
  d.seed = 1;
  const auto r = rn::execute_run(d);
  ASSERT_TRUE(r.ok);
  EXPECT_GT(r.events, 0u);
  EXPECT_GT(r.delivered, 0u);
  EXPECT_GT(r.jain, 0.0);
  EXPECT_LE(r.jain, 1.0 + 1e-12);
  EXPECT_EQ(r.avg_rate_pps.size(), 60u);
}
