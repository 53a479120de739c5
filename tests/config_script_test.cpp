// Tests for the scenario-script parser and runner (the ns-2 script
// substitute): grammar, diagnostics, and an end-to-end scripted run.
#include <gtest/gtest.h>

#include <sstream>

#include "scenario/config_script.h"

namespace corelite::scenario {
namespace {

std::optional<ScriptScenario> parse(const std::string& text, std::string* err_out = nullptr) {
  std::istringstream in{text};
  std::ostringstream err;
  auto s = parse_scenario_script(in, err);
  if (err_out != nullptr) *err_out = err.str();
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

TEST(ConfigScript, ParsesDumbbell) {
  const auto s = parse(kDumbbell);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->mechanism, "corelite");
  EXPECT_DOUBLE_EQ(s->duration_sec, 60.0);
  EXPECT_EQ(s->seed, 5u);
  EXPECT_EQ(s->links.size(), 5u);
  EXPECT_EQ(s->cores.size(), 2u);
  EXPECT_EQ(s->edges.size(), 2u);
  ASSERT_EQ(s->flows.size(), 2u);
  EXPECT_DOUBLE_EQ(s->flows[0].weight, 1.0);
  EXPECT_DOUBLE_EQ(s->flows[1].weight, 3.0);  // from the gold class
  // Nodes auto-created in reference order: E1, A, E2, B, X1, X2.
  EXPECT_EQ(s->nodes.size(), 6u);
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
  const auto& f = s->flows[0];
  EXPECT_DOUBLE_EQ(f.min_rate_pps, 15.0);
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
  std::string err;
  EXPECT_FALSE(parse("link A B -1 5 40\nflow 1 A B weight 1\n", &err).has_value());
  EXPECT_FALSE(parse("link A B 4 5 40\nflow 0 A B weight 1\n", &err).has_value());
  EXPECT_FALSE(parse("link A B 4 5 40\nflow 1 A B weight -2\n", &err).has_value());
  EXPECT_FALSE(parse("link A B 4 5 40\nflow 1 A B class nope\n", &err).has_value());
  EXPECT_FALSE(parse("link A A 4 5 40\n", &err).has_value());
  EXPECT_FALSE(parse("mechanism magic\n", &err).has_value());
  EXPECT_FALSE(parse("link A B 4 5 40\nflow 1 A B weight 1 window 5 3\n", &err).has_value());
  // Non-finite numbers are rejected everywhere; "inf" is only a window STOP.
  const std::string ok_link = "link A B 4 5 40\n";
  const std::string ok_flow = "flow 1 A B weight 1\n";
  for (const char* bad : {"nan", "inf", "-inf", "NAN", "infinity"}) {
    const std::string v = bad;
    for (const std::string& script :
         {"duration " + v + "\n" + ok_link + ok_flow,
          "class gold " + v + "\n" + ok_link + "flow 1 A B class gold\n",
          "class gold 2 " + v + "\n" + ok_link + "flow 1 A B class gold\n",
          ok_link + "flow 1 A B weight " + v + "\n",
          ok_link + "flow 1 A B weight 1 min " + v + "\n",
          "link A B " + v + " 5 40\n" + ok_flow,
          "link A B 4 " + v + " 40\n" + ok_flow,
          ok_link + "flow 1 A B weight 1 window " + v + " inf\n"}) {
      EXPECT_FALSE(parse(script, &err).has_value()) << script;
    }
  }
  EXPECT_TRUE(parse(ok_link + "flow 1 A B weight 1 window 2 inf\n", &err).has_value()) << err;
}

TEST(ConfigScript, RequiresLinksAndFlows) {
  std::string err;
  EXPECT_FALSE(parse("node A\n", &err).has_value());
  EXPECT_NE(err.find("no links"), std::string::npos);
  EXPECT_FALSE(parse("link A B 4 5 40\n", &err).has_value());
  EXPECT_NE(err.find("no flows"), std::string::npos);
}

TEST(ConfigScript, RunValidatesEdgesAndRoutes) {
  // Flow from a node not declared 'edge'.
  auto s = parse(R"(
link E A 10 1 40
link A X 4 1 40
core A
flow 1 E X weight 1
)");
  ASSERT_TRUE(s.has_value());
  std::ostringstream err;
  EXPECT_FALSE(run_script_scenario(*s, err).has_value());
  EXPECT_NE(err.str().find("not declared 'edge'"), std::string::npos);

  // Unreachable egress (simplex link the wrong way).
  auto s2 = parse(R"(
link X A 4 1 40 simplex
link E A 10 1 40
edge E
core A
flow 1 E X weight 1
)");
  ASSERT_TRUE(s2.has_value());
  std::ostringstream err2;
  EXPECT_FALSE(run_script_scenario(*s2, err2).has_value());
  EXPECT_NE(err2.str().find("no route"), std::string::npos);
}

TEST(ConfigScript, EndToEndScriptedRunConverges) {
  auto s = parse(kDumbbell);
  ASSERT_TRUE(s.has_value());
  std::ostringstream err;
  const auto r = run_script_scenario(*s, err);
  ASSERT_TRUE(r.has_value()) << err.str();
  EXPECT_EQ(r->unrouteable, 0u);
  // Weights 1:3 on 500 pkt/s -> ~125 / ~375.
  const double r1 = r->tracker.series(1).allotted_rate.average_over(30, 60);
  const double r2 = r->tracker.series(2).allotted_rate.average_over(30, 60);
  EXPECT_NEAR(r2 / r1, 3.0, 0.8);
  EXPECT_NEAR(r1 + r2, 500.0, 80.0);
}

TEST(ConfigScript, CsfqScriptRuns) {
  auto s = parse(kDumbbell);
  ASSERT_TRUE(s.has_value());
  s->mechanism = "csfq";
  std::ostringstream err;
  const auto r = run_script_scenario(*s, err);
  ASSERT_TRUE(r.has_value()) << err.str();
  EXPECT_GT(r->data_drops, 0u);  // CSFQ's congestion signal
  const double r1 = r->tracker.series(1).allotted_rate.average_over(30, 60);
  const double r2 = r->tracker.series(2).allotted_rate.average_over(30, 60);
  EXPECT_NEAR(r2 / r1, 3.0, 1.2);
}

}  // namespace
}  // namespace corelite::scenario
