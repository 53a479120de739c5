// Tests for the scenario-script parser (the ns-2 script substitute):
// grammar, diagnostics, the node rules that turn a script into a
// topology description, and scripted runs through run_paper_scenario.
#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "runner/sweep.h"
#include "scenario/config_script.h"
#include "sim/fluid/allocator.h"

namespace corelite::scenario {
namespace {

std::optional<ScenarioSpec> parse(const std::string& text, std::string* err_out = nullptr) {
  std::istringstream in{text};
  std::ostringstream err;
  auto s = parse_scenario_script(in, err);
  if (err_out != nullptr) *err_out = err.str();
  return s;
}

std::optional<ScenarioSpec> parse_example(const std::string& name) {
  std::ifstream in{std::string(CORELITE_SCRIPTS_DIR) + "/" + name};
  EXPECT_TRUE(in) << name;
  std::ostringstream err;
  auto s = parse_scenario_script(in, err);
  EXPECT_TRUE(s.has_value()) << err.str();
  return s;
}

constexpr const char* kDumbbell = R"(
# two edges, one core pair, shared 4 Mbps bottleneck
mechanism corelite
duration 60
seed 5

link E1 A 20 5 100
link E2 A 20 5 100
link A B 4 5 40
link B X1 20 5 100
link B X2 20 5 100

core A
core B
edge E1
edge E2

class gold 3
flow 1 E1 X1 weight 1
flow 2 E2 X2 class gold
)";

/// Flow `f`'s mean allotted rate over [30, 60] s.
double avg_rate(const ScenarioResult& r, net::FlowId f) {
  return r.tracker.series(f).allotted_rate.average_over(30, 60);
}

TEST(ConfigScript, ParsesDumbbell) {
  const auto s = parse(kDumbbell);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->mechanism, Mechanism::Corelite);
  EXPECT_DOUBLE_EQ(s->duration.sec(), 60.0);
  EXPECT_EQ(s->seed, 5u);
  EXPECT_EQ(s->num_flows, 2u);
  ASSERT_TRUE(s->generated.has_value());
  const GeneratedTopology& t = s->generated->topology;
  // Routers A, B; one source per edge, one sink per egress.
  EXPECT_EQ(t.routers, 2u);
  ASSERT_EQ(t.links.size(), 1u);
  EXPECT_EQ(t.bottlenecks, std::vector<std::size_t>{0});
  EXPECT_EQ(t.sources, (std::vector<std::uint32_t>{0, 0}));
  EXPECT_EQ(t.sinks, (std::vector<std::uint32_t>{1, 1}));
  const LinkParams& core = t.links[0].own;
  EXPECT_EQ(core.rate, sim::Rate::mbps(4));
  EXPECT_EQ(core.delay, sim::TimeDelta::millis(5));
  EXPECT_EQ(core.queue_packets, 40u);
  EXPECT_FALSE(core.simplex);
  ASSERT_EQ(t.sink_links.size(), 2u);
  EXPECT_EQ(t.sink_links[1].rate, sim::Rate::mbps(20));
  EXPECT_EQ(t.sink_links[1].queue_packets, 100u);
  const auto& flows = s->generated->fixed_flows;
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_DOUBLE_EQ(flows[0].weight, 1.0);
  EXPECT_DOUBLE_EQ(flows[1].weight, 3.0);  // from the gold class
  EXPECT_EQ(flows[1].src_attach, 1u);
  EXPECT_EQ(flows[1].dst_attach, 1u);
}

TEST(ConfigScript, WindowsAndMinRate) {
  const auto s = parse(R"(
link E A 10 1 40
link A X 4 1 40
edge E
core A
flow 1 E X weight 2 min 15 window 10 20 window 30 inf
)");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->min_rates, std::vector<double>{15.0});
  const auto& f = s->generated->fixed_flows[0];
  ASSERT_EQ(f.windows.size(), 2u);
  EXPECT_DOUBLE_EQ(f.windows[0].start.sec(), 10.0);
  EXPECT_DOUBLE_EQ(f.windows[0].stop.sec(), 20.0);
  EXPECT_FALSE(f.windows[1].stop < sim::SimTime::infinite());
}

TEST(ConfigScript, DiagnosticsCarryLineNumbers) {
  std::string err;
  EXPECT_FALSE(parse("link A\n", &err).has_value());
  EXPECT_NE(err.find("line 1"), std::string::npos);

  EXPECT_FALSE(parse("\n\nbogus command\n", &err).has_value());
  EXPECT_NE(err.find("line 3"), std::string::npos);
  EXPECT_NE(err.find("unknown command"), std::string::npos);
}

TEST(ConfigScript, RejectsBadValues) {
  // A valid one-flow script, with the line under test appended to it.
  const std::string ok = "link E A 4 5 40\nlink A X 4 5 40\nedge E\ncore A\n";
  std::string err;
  EXPECT_FALSE(parse(ok + "link A B -1 5 40\nflow 1 E X weight 1\n", &err).has_value());
  EXPECT_FALSE(parse(ok + "flow 0 E X weight 1\n", &err).has_value());
  EXPECT_FALSE(parse(ok + "flow 1 E X weight -2\n", &err).has_value());
  EXPECT_FALSE(parse(ok + "flow 1 E X class nope\n", &err).has_value());
  EXPECT_FALSE(parse("link A A 4 5 40\n", &err).has_value());
  EXPECT_FALSE(parse("mechanism magic\n", &err).has_value());
  EXPECT_NE(err.find("wfq"), std::string::npos) << err;  // names every table row
  EXPECT_FALSE(parse(ok + "flow 1 E X weight 1 window 5 3\n", &err).has_value());
  // Non-finite numbers are rejected everywhere; "inf" is only a window STOP.
  const std::string ok_flow = "flow 1 E X weight 1\n";
  for (const char* bad : {"nan", "inf", "-inf", "NAN", "infinity"}) {
    const std::string v = bad;
    for (const std::string& script :
         {"duration " + v + "\n" + ok + ok_flow,
          "class gold " + v + "\n" + ok + "flow 1 E X class gold\n",
          "class gold 2 " + v + "\n" + ok + "flow 1 E X class gold\n",
          ok + "flow 1 E X weight " + v + "\n",
          ok + "flow 1 E X weight 1 min " + v + "\n",
          "link E A " + v + " 5 40\nlink A X 4 5 40\nedge E\ncore A\n" + ok_flow,
          "link E A 4 " + v + " 40\nlink A X 4 5 40\nedge E\ncore A\n" + ok_flow,
          ok + "flow 1 E X weight 1 window " + v + " inf\n"}) {
      EXPECT_FALSE(parse(script, &err).has_value()) << script;
    }
  }
  EXPECT_TRUE(parse(ok + "flow 1 E X weight 1 window 2 inf\n", &err).has_value()) << err;

  // Flow ids are unique and exactly 1..N.  A duplicate id used to merge
  // two flows' rows (different edges) or overwrite the first flow (same
  // edge), and an id past 2^32 wrapped: 4294967297 became flow 1.
  const std::string two = ok + "link A Y 4 5 40\n";  // a second egress
  const std::vector<std::pair<std::string, std::string>> bad_ids = {
      {two + "flow 1 E X weight 1\nflow 1 E Y weight 1\n", "line 7: duplicate flow id 1"},
      {ok + "flow 1 E X weight 1\nflow 1 E X weight 2\n", "line 6: duplicate flow id 1"},
      {ok + "flow 4294967297 E X weight 1\n", "line 5: flow id 4294967297 is out of range"},
      {two + "flow 1 E X weight 1\nflow 3 E Y weight 1\n", "line 7: flow id 3 is out of range"},
  };
  for (const auto& [script, message] : bad_ids) {
    EXPECT_FALSE(parse(script, &err).has_value()) << script;
    EXPECT_NE(err.find(message), std::string::npos) << err;
  }
  // Any order is fine.
  const auto s = parse(two + "flow 2 E Y weight 2\nflow 1 E X weight 1\n", &err);
  ASSERT_TRUE(s.has_value()) << err;
  EXPECT_EQ(s->generated->fixed_flows[0].id, 1u);
  EXPECT_DOUBLE_EQ(s->generated->fixed_flows[1].weight, 2.0);
}

TEST(ConfigScript, RequiresLinksAndFlows) {
  std::string err;
  EXPECT_FALSE(parse("node A\n", &err).has_value());
  EXPECT_NE(err.find("no links"), std::string::npos);
  EXPECT_FALSE(parse("link A B 4 5 40\n", &err).has_value());
  EXPECT_NE(err.find("no flows"), std::string::npos);
}

// The parser applies the node rules, so a script that could not run
// never becomes a spec.
TEST(ConfigScript, RunValidatesEdgesAndRoutes) {
  const std::string base = "link E A 10 1 40\nlink A X 4 1 40\n";
  const std::vector<std::pair<std::string, std::string>> cases = {
      // Flow from a node not declared 'edge'.
      {base + "core A\nflow 1 E X weight 1\n", "flow 1: ingress 'E' is not declared 'edge'"},
      // Unreachable egress: a simplex link the wrong way, on an attach
      // link and on a router link.
      {"link X A 4 1 40 simplex\nlink E A 10 1 40\nedge E\ncore A\nflow 1 E X weight 1\n",
       "sink 'X': no route from 'A'"},
      {"link E A 10 1 40\nlink B A 4 1 40 simplex\nlink B X 10 1 40\nedge E\ncore A\ncore B\n"
       "flow 1 E X weight 1\n",
       "flow 1: no route from 'E' to 'X'"},
      // A router not declared 'core'.
      {base + "edge E\nflow 1 E X weight 1\n", "node 'A' is a router and must be declared 'core'"},
      // An egress that is not a leaf, or is declared.
      {base + "edge E\ncore A\nflow 1 E A weight 1\n", "egress 'A' must be a leaf node"},
      {base + "edge E\ncore A\ncore X\nflow 1 E X weight 1\n", "egress 'X' must be a leaf node"},
      // An edge with two links, or linked to a non-router.
      {base + "link E B 1 1 4\nlink B A 1 1 4\nedge E\ncore A\ncore B\nflow 1 E X weight 1\n",
       "edge 'E' must have exactly one link, has 2"},
      {"link E X 10 1 40\nedge E\nflow 1 E X weight 1\n", "edge 'E' must link to a router"},
      // Both roles, and a disconnected router.
      {base + "edge E\ncore A\ncore E\nflow 1 E X weight 1\n",
       "node 'E' is declared both 'core' and 'edge'"},
      {base + "edge E\ncore A\ncore Z\nflow 1 E X weight 1\n", "not connected"},
  };
  for (const auto& [script, message] : cases) {
    std::string err;
    EXPECT_FALSE(parse(script, &err).has_value()) << script;
    EXPECT_NE(err.find(message), std::string::npos) << err;
  }
}

TEST(ConfigScript, EndToEndScriptedRunConverges) {
  const auto s = parse(kDumbbell);
  ASSERT_TRUE(s.has_value());
  const ScenarioResult r = run_paper_scenario(*s);
  EXPECT_EQ(r.unrouteable, 0u);
  // Weights 1:3 on 500 pkt/s -> ~125 / ~375.
  const double r1 = avg_rate(r, 1);
  const double r2 = avg_rate(r, 2);
  EXPECT_NEAR(r2 / r1, 3.0, 0.8);
  EXPECT_NEAR(r1 + r2, 500.0, 80.0);
}

TEST(ConfigScript, CsfqScriptRuns) {
  auto s = parse(kDumbbell);
  ASSERT_TRUE(s.has_value());
  s->mechanism = Mechanism::Csfq;
  const ScenarioResult r = run_paper_scenario(*s);
  EXPECT_GT(r.total_data_drops, 0u);  // CSFQ's congestion signal
  EXPECT_NEAR(avg_rate(r, 2) / avg_rate(r, 1), 3.0, 1.2);
}

TEST(ConfigScript, DumbbellRunsUnderEveryMechanism) {
  auto s = parse_example("dumbbell.cls");
  ASSERT_TRUE(s.has_value());
  for (const MechanismRow& row : kMechanisms) {
    s->mechanism = row.mechanism;
    const ScenarioResult r = run_paper_scenario(*s);
    EXPECT_EQ(r.unrouteable, 0u) << row.name;
    EXPECT_GT(r.tracker.series(1).delivered, 0u) << row.name;
    EXPECT_GT(r.tracker.series(2).delivered, 0u) << row.name;
    // Only the stateful disciplines keep per-flow state in the cores.
    const bool stateful = row.queue == CoreQueueKind::Wfq || row.queue == CoreQueueKind::Fred;
    if (!stateful) {
      EXPECT_EQ(r.core_flow_state, 0u) << row.name;
    } else if (row.queue == CoreQueueKind::Wfq) {
      EXPECT_GT(r.core_flow_state, 0u) << row.name;
    }
  }
}

TEST(ConfigScript, ParkingLotLpDigestIsThreadInvariant) {
  auto s = parse_example("parking_lot.cls");
  ASSERT_TRUE(s.has_value());
  s->lp = 2;
  const std::uint64_t auto_threads = runner::result_digest(run_paper_scenario(*s));
  s->lp_threads = 1;
  EXPECT_EQ(runner::result_digest(run_paper_scenario(*s)), auto_threads);
}

TEST(ConfigScript, IdealRatesMatchWaterFillOverScriptLinks) {
  const auto s = parse_example("parking_lot.cls");
  ASSERT_TRUE(s.has_value());
  // A-B, B-C, C-D at 6/4/2 Mbps; the 10 Mbps access links never bind.
  const std::vector<double> caps{750.0, 500.0, 250.0};
  const std::vector<std::vector<std::uint32_t>> links = {{0, 1, 2}, {0}, {1}, {2}, {1, 2}};
  for (const double t : {10.0, 50.0, 100.0}) {
    std::vector<net::FlowId> ids;
    std::vector<sim::fluid::AllocFlow> flows;
    for (const GenFlow& f : s->generated->fixed_flows) {
      if (f.id == 3 && (t < 20.0 || t >= 90.0)) continue;  // window 20 90
      ids.push_back(f.id);
      flows.push_back({f.weight, std::numeric_limits<double>::infinity(), links[f.id - 1], 0.0});
    }
    const std::vector<double> want = sim::fluid::water_fill(caps, flows);
    const auto got = ideal_rates_at(*s, sim::SimTime::seconds(t));
    ASSERT_EQ(got.size(), ids.size()) << t;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_NEAR(got.at(ids[i]), want[i], 1e-9) << "t " << t << " flow " << ids[i];
    }
  }
}

// A minimum-rate contract reaches the auditor's oracle: flow 1's
// 300 pkt/s contract on the 500 pkt/s bottleneck moves its fair share
// from 125 to 300 + 200/4 = 350.
TEST(ConfigScript, ContractsReachTheAuditOracle) {
  const auto s = parse(R"(
duration 60
seed 5
link E1 A 20 5 100
link E2 A 20 5 100
link A B 4 5 40
link B X1 20 5 100
link B X2 20 5 100
core A
core B
edge E1
edge E2
flow 1 E1 X1 weight 1 min 300
flow 2 E2 X2 weight 3
)");
  ASSERT_TRUE(s.has_value());
  const auto ideal = ideal_rates_at(*s, sim::SimTime::seconds(30));
  EXPECT_NEAR(ideal.at(1), 350.0, 1e-9);
  EXPECT_NEAR(ideal.at(2), 150.0, 1e-9);

  ScenarioSpec audited = *s;
  audited.audit.enabled = true;
  const ScenarioResult r = run_paper_scenario(audited);
  ASSERT_NE(r.audit_report, nullptr);
  ASSERT_FALSE(r.audit_report->windows.empty());
  for (const telemetry::AuditWindow& w : r.audit_report->windows) {
    for (const telemetry::AuditFlowSample& f : w.flows) {
      EXPECT_NEAR(f.fair_share_pps, ideal.at(f.id), 1e-6) << "window " << w.index;
    }
  }
}

}  // namespace
}  // namespace corelite::scenario
