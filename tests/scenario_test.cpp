// Tests for the paper-chain description and scenario factories: path
// assignment, round-trip times, the ideal-rate oracle reproducing the
// paper's §4.1 arithmetic and agreeing with the congested-link chain
// reference, the steady-state score built on it, and spec construction.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "net/network.h"
#include "scenario/paper_topology.h"
#include "scenario/scenario.h"
#include "sim/fluid/allocator.h"
#include "stats/fairness.h"

namespace corelite::scenario {
namespace {

TEST(PaperTopology, CoreSpanAssignment) {
  using P = std::pair<std::size_t, std::size_t>;
  EXPECT_EQ(PaperTopology::core_span(1), (P{0, 1}));
  EXPECT_EQ(PaperTopology::core_span(5), (P{0, 1}));
  EXPECT_EQ(PaperTopology::core_span(6), (P{0, 2}));
  EXPECT_EQ(PaperTopology::core_span(8), (P{0, 2}));
  EXPECT_EQ(PaperTopology::core_span(9), (P{0, 3}));
  EXPECT_EQ(PaperTopology::core_span(10), (P{0, 3}));
  EXPECT_EQ(PaperTopology::core_span(11), (P{1, 2}));
  EXPECT_EQ(PaperTopology::core_span(12), (P{1, 2}));
  EXPECT_EQ(PaperTopology::core_span(13), (P{1, 3}));
  EXPECT_EQ(PaperTopology::core_span(15), (P{1, 3}));
  EXPECT_EQ(PaperTopology::core_span(16), (P{2, 3}));
  EXPECT_EQ(PaperTopology::core_span(20), (P{2, 3}));
}

TEST(PaperTopology, CongestedLinksPerFlow) {
  EXPECT_EQ(PaperTopology::congested_links(3), (std::vector<std::size_t>{0}));
  EXPECT_EQ(PaperTopology::congested_links(7), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(PaperTopology::congested_links(9), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(PaperTopology::congested_links(14), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(PaperTopology::congested_links(18), (std::vector<std::size_t>{2}));
}

/// Runs the 20-flow paper chain for an instant and hands its live
/// network and bottleneck links to `inspect` (via the instrument hook).
void inspect_paper_network(
    const std::function<void(net::Network&, const std::vector<net::Link*>&)>& inspect) {
  auto spec = fig3_network_dynamics(Mechanism::Corelite);
  spec.duration = sim::SimTime::seconds(0.001);
  spec.instrument = inspect;
  (void)run_paper_scenario(spec);
}

/// The node the runner named `name` ("R<router>", "S<i>"/"D<i>" for
/// source/sink attach node i).
net::NodeId node_named(const net::Network& network, const std::string& name) {
  for (net::NodeId n = 0; n < network.node_count(); ++n) {
    if (network.node(n).name() == name) return n;
  }
  ADD_FAILURE() << "no node " << name;
  return net::kInvalidNode;
}

TEST(PaperTopology, RoutesFollowAssignedSpans) {
  // The description: one attach node per flow, at its entry/exit core.
  const GeneratedTopology chain = make_paper_chain({}, 20);
  EXPECT_EQ(chain.routers, PaperTopology::kCoreCount);
  EXPECT_EQ(chain.bottlenecks.size(), PaperTopology::kCongestedLinks);
  ASSERT_EQ(chain.sources.size(), 20u);
  ASSERT_EQ(chain.sinks.size(), 20u);
  for (net::FlowId f = 1; f <= 20; ++f) {
    const auto [entry, exit] = PaperTopology::core_span(f);
    EXPECT_EQ(chain.sources[f - 1], entry) << "flow " << f;
    EXPECT_EQ(chain.sinks[f - 1], exit) << "flow " << f;
  }
  // The built network: flow 9 (C1 -> C4) runs ingress -> C1 -> C2 ->
  // C3 -> C4 -> egress.
  inspect_paper_network([](net::Network& network, const std::vector<net::Link*>&) {
    const auto path = network.path(node_named(network, "S8"), node_named(network, "D8"));
    ASSERT_EQ(path.size(), 6u);
    for (std::size_t i = 0; i < PaperTopology::kCoreCount; ++i) {
      EXPECT_EQ(path[i + 1], node_named(network, "R" + std::to_string(i)));
    }
  });
}

TEST(PaperTopology, RoundTripTimesMatchPaper) {
  // One-way: access 40 + n x 40 core + access 40; RTT doubles it.
  // 1 congested link -> 240 ms, 2 -> 320 ms, 3 -> 400 ms (paper §4.1).
  inspect_paper_network([](net::Network& network, const std::vector<net::Link*>&) {
    auto rtt_ms = [&](net::FlowId f) {
      const auto path = network.path(node_named(network, "S" + std::to_string(f - 1)),
                                     node_named(network, "D" + std::to_string(f - 1)));
      double one_way = 0.0;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        one_way += network.find_link(path[i], path[i + 1])->propagation_delay().sec();
      }
      return 2.0 * one_way * 1000.0;
    };
    EXPECT_NEAR(rtt_ms(1), 240.0, 1e-9);
    EXPECT_NEAR(rtt_ms(7), 320.0, 1e-9);
    EXPECT_NEAR(rtt_ms(9), 400.0, 1e-9);
    EXPECT_NEAR(rtt_ms(11), 240.0, 1e-9);
    EXPECT_NEAR(rtt_ms(14), 320.0, 1e-9);
    EXPECT_NEAR(rtt_ms(17), 240.0, 1e-9);
  });
}

TEST(PaperTopology, CapacityIs500PacketsPerSecond) {
  const GeneratedTopology chain = make_paper_chain({}, 4);
  EXPECT_DOUBLE_EQ(chain.capacity_pps(), 500.0);
  // Every link of the built chain, access links included, runs 4 Mbps.
  const PaperTopologyConfig cfg;
  inspect_paper_network([&cfg](net::Network& network, const std::vector<net::Link*>& congested) {
    EXPECT_EQ(congested.size(), PaperTopology::kCongestedLinks);
    for (const auto& l : network.links()) {
      EXPECT_DOUBLE_EQ(l->rate().pps(cfg.packet_size), 500.0);
    }
  });
}

TEST(ScenarioSpec, Fig3WeightsAndActivity) {
  const auto s = fig3_network_dynamics(Mechanism::Corelite);
  ASSERT_EQ(s.num_flows, 20u);
  EXPECT_DOUBLE_EQ(s.weights[4], 3.0);   // flow 5
  EXPECT_DOUBLE_EQ(s.weights[14], 3.0);  // flow 15
  EXPECT_DOUBLE_EQ(s.weights[0], 1.0);   // flow 1
  EXPECT_DOUBLE_EQ(s.weights[10], 1.0);  // flow 11
  EXPECT_DOUBLE_EQ(s.weights[15], 1.0);  // flow 16
  EXPECT_DOUBLE_EQ(s.weights[9], 2.0);   // flow 10 has weight 2 in §4.1
  // Late flows run [250, 500); the rest [0, 750).
  EXPECT_DOUBLE_EQ(s.activity[0][0].start.sec(), 250.0);
  EXPECT_DOUBLE_EQ(s.activity[0][0].stop.sec(), 500.0);
  EXPECT_DOUBLE_EQ(s.activity[1][0].start.sec(), 0.0);
  EXPECT_DOUBLE_EQ(s.activity[1][0].stop.sec(), 750.0);
}

TEST(ScenarioSpec, Fig5Weights) {
  const auto s = fig5_simultaneous_start(Mechanism::Csfq);
  ASSERT_EQ(s.num_flows, 10u);
  const std::vector<double> expect{1, 1, 2, 2, 3, 3, 4, 4, 5, 5};
  EXPECT_EQ(s.weights, expect);
  EXPECT_EQ(s.mechanism, Mechanism::Csfq);
}

TEST(ScenarioSpec, Fig7WeightsDifferFromFig3) {
  const auto s = fig7_staggered_start(Mechanism::Corelite);
  EXPECT_DOUBLE_EQ(s.weights[9], 3.0);  // flow 10 has weight 3 in §4.3
  EXPECT_DOUBLE_EQ(s.activity[4][0].start.sec(), 4.0);  // flow 5 starts at t=4
}

TEST(ScenarioSpec, Fig9ChurnWindows) {
  const auto s = fig9_churn(Mechanism::Corelite);
  // Flow 3: [2, 62) then [67, inf).
  ASSERT_EQ(s.activity[2].size(), 2u);
  EXPECT_DOUBLE_EQ(s.activity[2][0].start.sec(), 2.0);
  EXPECT_DOUBLE_EQ(s.activity[2][0].stop.sec(), 62.0);
  EXPECT_DOUBLE_EQ(s.activity[2][1].start.sec(), 67.0);
}

TEST(IdealRates, MatchesPaperExpectations) {
  const auto spec = fig3_network_dynamics(Mechanism::Corelite);
  // t = 100: flows 1, 9, 10, 11, 16 inactive -> 33.33 per unit weight.
  const auto early = ideal_rates_at(spec, sim::SimTime::seconds(100));
  EXPECT_EQ(early.count(1), 0u);
  EXPECT_NEAR(early.at(5), 100.0, 0.01);
  EXPECT_NEAR(early.at(2), 66.67, 0.01);
  // t = 300: all 20 active -> 25 per unit weight.
  const auto mid = ideal_rates_at(spec, sim::SimTime::seconds(300));
  EXPECT_NEAR(mid.at(1), 25.0, 0.01);
  EXPECT_NEAR(mid.at(5), 75.0, 0.01);
  EXPECT_NEAR(mid.at(9), 50.0, 0.01);
  // t = 600: the late flows have left again.
  const auto late = ideal_rates_at(spec, sim::SimTime::seconds(600));
  EXPECT_EQ(late.count(16), 0u);
  EXPECT_NEAR(late.at(20), 66.67, 0.01);
}

TEST(IdealRates, EqualsWaterFillOverTheCongestedLinks) {
  // PaperTopology::congested_links is the chain's independent reference:
  // ideal_rates_at walks the runner's routes instead and must land on
  // the same allocation, flow set included.
  const PaperTopologyConfig cfg;
  const std::vector<double> caps(PaperTopology::kCongestedLinks,
                                 cfg.link_rate.pps(cfg.packet_size));
  for (const char* name : {"fig3", "fig5", "fig7", "fig9"}) {
    const ScenarioSpec spec = *scenario_by_name(name, Mechanism::Corelite);
    for (double t : {0.5, 4.5, 30.0, 62.5, 100.0, 300.0, 600.0}) {
      std::vector<net::FlowId> ids;
      std::vector<sim::fluid::AllocFlow> flows;
      for (std::size_t i = 0; i < spec.num_flows; ++i) {
        bool active = i >= spec.activity.size() || spec.activity[i].empty();
        for (std::size_t k = 0; !active && k < spec.activity[i].size(); ++k) {
          active = t >= spec.activity[i][k].start.sec() && t < spec.activity[i][k].stop.sec();
        }
        if (!active) continue;
        const auto id = static_cast<net::FlowId>(i + 1);
        sim::fluid::AllocFlow f;
        f.weight = spec.weights[i];
        for (std::size_t l : PaperTopology::congested_links(id)) {
          f.links.push_back(static_cast<std::uint32_t>(l));
        }
        ids.push_back(id);
        flows.push_back(std::move(f));
      }
      const std::vector<double> want = sim::fluid::water_fill(caps, flows);
      const auto got = ideal_rates_at(spec, sim::SimTime::seconds(t));
      ASSERT_EQ(got.size(), ids.size()) << name << " t=" << t;
      for (std::size_t k = 0; k < ids.size(); ++k) {
        ASSERT_EQ(got.count(ids[k]), 1u) << name << " t=" << t << " flow " << ids[k];
        EXPECT_NEAR(got.at(ids[k]), want[k], 1e-9 * want[k])
            << name << " t=" << t << " flow " << ids[k];
      }
    }
  }
}

TEST(IdealRates, MinimumRateContractsComeFirst) {
  // Every fig5 flow crosses C1-C2 (total weight 30).  Flow 1's 120 pkt/s
  // contract comes off the top; the other 380 pkt/s split by weight.
  auto spec = fig5_simultaneous_start(Mechanism::Corelite);
  spec.min_rates.assign(spec.num_flows, 0.0);
  spec.min_rates[0] = 120.0;
  const auto ideal = ideal_rates_at(spec, sim::SimTime::seconds(40));
  const double share = 380.0 / 30.0;
  EXPECT_NEAR(ideal.at(1), 120.0 + share, 1e-9);
  EXPECT_NEAR(ideal.at(2), share, 1e-9);
  EXPECT_NEAR(ideal.at(10), 5.0 * share, 1e-9);
}

// fig3 at 100 s, before the five late flows arrive.  Every active flow
// runs at exactly twice its ideal and the late ones at arbitrary rates,
// so Jain is 1 only if the late ones are left out.
TEST(SteadyStateScore, FlowsInactiveAtTheProbeAreNotScored) {
  const auto spec = fig3_network_dynamics(Mechanism::Corelite);
  const auto probe = sim::SimTime::seconds(100);
  const auto oracle = ideal_rates_at(spec, probe);
  ScenarioResult r;
  for (std::size_t i = 1; i <= spec.num_flows; ++i) {
    const auto f = static_cast<net::FlowId>(i);
    r.tracker.declare_flow(f, spec.weights[i - 1]);
    const double rate = oracle.count(f) != 0 ? 2.0 * oracle.at(f) : 37.0 * static_cast<double>(i);
    r.tracker.record_rate(f, sim::SimTime::zero(), rate);
  }
  const auto score = steady_state_score(spec, r, 100.0, 240.0, probe);
  ASSERT_EQ(score.ideal.size(), spec.num_flows);
  ASSERT_EQ(score.avg_rate.size(), spec.num_flows);
  std::size_t scored = 0;
  for (std::size_t i = 1; i <= spec.num_flows; ++i) {
    const bool late = i == 1 || i == 9 || i == 10 || i == 11 || i == 16;
    if (late) {
      EXPECT_EQ(score.ideal[i - 1], 0.0) << "flow " << i;
      // Measured all the same, just not scored.
      EXPECT_DOUBLE_EQ(score.avg_rate[i - 1], 37.0 * static_cast<double>(i)) << "flow " << i;
    } else {
      EXPECT_GT(score.ideal[i - 1], 0.0) << "flow " << i;
      EXPECT_DOUBLE_EQ(score.avg_rate[i - 1], 2.0 * score.ideal[i - 1]) << "flow " << i;
      ++scored;
    }
  }
  EXPECT_EQ(scored, 15u);
  EXPECT_NEAR(score.jain, 1.0, 1e-12);
}

// Counters-only runs (bench-scale populations) keep no rate series; the
// score falls back to delivered / duration for them.
TEST(SteadyStateScore, CountersOnlyRunsScoreDeliveredOverTheDuration) {
  const auto spec = *scenario_by_name("gen-pl4-40", Mechanism::Corelite);
  const double t_end = spec.duration.sec();
  const auto probe = sim::SimTime::seconds(t_end / 2.0);
  const auto oracle = ideal_rates_at(spec, probe);
  ASSERT_FALSE(oracle.empty());
  ScenarioResult r;
  r.tracker.set_series_enabled(false);
  for (std::size_t i = 1; i <= spec.num_flows; ++i) {
    const auto f = static_cast<net::FlowId>(i);
    r.tracker.declare_flow(f, 1.0);
    r.tracker.record_rate(f, sim::SimTime::zero(), 999.0);  // not stored: series are off
    r.tracker.add_synthesized(f, 100 * i, 100 * i, 0);
  }
  const auto score = steady_state_score(spec, r, t_end / 2.0, t_end, probe);
  std::vector<double> rates;
  std::vector<double> ideals;
  for (std::size_t i = 1; i <= spec.num_flows; ++i) {
    const auto it = oracle.find(static_cast<net::FlowId>(i));
    EXPECT_DOUBLE_EQ(score.avg_rate[i - 1], 100.0 * static_cast<double>(i) / t_end) << i;
    EXPECT_EQ(score.ideal[i - 1], it != oracle.end() ? it->second : 0.0) << i;
    if (score.ideal[i - 1] > 0.0) {
      rates.push_back(score.avg_rate[i - 1]);
      ideals.push_back(score.ideal[i - 1]);
    }
  }
  ASSERT_FALSE(rates.empty());
  EXPECT_EQ(score.jain, stats::jain_index(rates, ideals));
  EXPECT_LT(score.jain, 1.0);
}

TEST(ScenarioRun, SmallRunProducesSaneAccounting) {
  auto spec = fig5_simultaneous_start(Mechanism::Corelite);
  spec.duration = sim::SimTime::seconds(10);
  const auto r = run_paper_scenario(spec);
  EXPECT_GT(r.events_processed, 1000u);
  EXPECT_EQ(r.unrouteable, 0u);
  EXPECT_GT(r.markers_injected, 0u);
  EXPECT_EQ(r.queue_series.size(), 3u);
  for (std::size_t i = 1; i <= spec.num_flows; ++i) {
    const auto& fs = r.tracker.series(static_cast<net::FlowId>(i));
    EXPECT_GT(fs.sent, 0u) << "flow " << i;
    // Conservation: deliveries can't exceed sends.
    EXPECT_LE(fs.delivered, fs.sent);
  }
}

TEST(ScenarioRun, MechanismNames) {
  EXPECT_EQ(mechanism_name(Mechanism::Corelite), "corelite");
  EXPECT_EQ(mechanism_name(Mechanism::Csfq), "csfq");
  EXPECT_EQ(mechanism_name(Mechanism::DropTail), "droptail");
  EXPECT_EQ(mechanism_name(Mechanism::Red), "red");
}

}  // namespace
}  // namespace corelite::scenario
