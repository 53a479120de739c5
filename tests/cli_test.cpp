// Tests for the command-line argument parser and the option ->
// ScenarioSpec mapping used by tools/corelite_sim.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/args.h"
#include "cli/scenario_args.h"

namespace corelite::cli {
namespace {

bool parse(ArgParser& p, std::vector<const char*> args, std::ostream& err) {
  args.insert(args.begin(), "prog");
  return p.parse(static_cast<int>(args.size()), args.data(), err);
}

TEST(ArgParser, DefaultsApplyWhenUnset) {
  ArgParser p{"prog", "test"};
  p.add_string("name", "alpha", "h");
  p.add_double("x", 2.5, "h");
  p.add_int("n", 7, "h");
  p.add_flag("v", "h");
  std::ostringstream err;
  ASSERT_TRUE(parse(p, {}, err));
  EXPECT_EQ(p.get_string("name"), "alpha");
  EXPECT_DOUBLE_EQ(p.get_double("x"), 2.5);
  EXPECT_EQ(p.get_int("n"), 7);
  EXPECT_FALSE(p.get_flag("v"));
  EXPECT_FALSE(p.was_set("name"));
}

TEST(ArgParser, SpaceAndEqualsSyntax) {
  ArgParser p{"prog", "test"};
  p.add_string("name", "", "h");
  p.add_double("x", 0.0, "h");
  std::ostringstream err;
  ASSERT_TRUE(parse(p, {"--name", "beta", "--x=3.25"}, err));
  EXPECT_EQ(p.get_string("name"), "beta");
  EXPECT_DOUBLE_EQ(p.get_double("x"), 3.25);
  EXPECT_TRUE(p.was_set("name"));
}

TEST(ArgParser, FlagNeedsNoValue) {
  ArgParser p{"prog", "test"};
  p.add_flag("verbose", "h");
  std::ostringstream err;
  ASSERT_TRUE(parse(p, {"--verbose"}, err));
  EXPECT_TRUE(p.get_flag("verbose"));
}

TEST(ArgParser, RejectsUnknownOption) {
  ArgParser p{"prog", "test"};
  std::ostringstream err;
  EXPECT_FALSE(parse(p, {"--nope", "1"}, err));
  EXPECT_NE(err.str().find("unknown option"), std::string::npos);
}

TEST(ArgParser, RejectsMalformedNumber) {
  ArgParser p{"prog", "test"};
  p.add_double("x", 0.0, "h");
  p.add_int("n", 0, "h");
  std::ostringstream err;
  EXPECT_FALSE(parse(p, {"--x", "abc"}, err));
  std::ostringstream err2;
  EXPECT_FALSE(parse(p, {"--n", "1.5"}, err2));
}

// Regression: strtoll saturates silently on overflow (errno=ERANGE was
// never checked), so "--n 99999999999999999999" became LLONG_MAX.
TEST(ArgParser, RejectsOutOfRangeInteger) {
  ArgParser p{"prog", "test"};
  p.add_int("n", 0, "h");
  std::ostringstream err;
  EXPECT_FALSE(parse(p, {"--n", "99999999999999999999"}, err));
  EXPECT_NE(err.str().find("out of range"), std::string::npos);
  std::ostringstream err2;
  EXPECT_FALSE(parse(p, {"--n", "-99999999999999999999"}, err2));
  // The boundary values themselves still parse.
  std::ostringstream err3;
  ArgParser q{"prog", "test"};
  q.add_int("n", 0, "h");
  ASSERT_TRUE(parse(q, {"--n", "9223372036854775807"}, err3));
  EXPECT_EQ(q.get_int("n"), INT64_MAX);
}

// Regression: "--x 1e999" parsed to inf (ERANGE ignored) and literal
// inf/nan passed straight through to option consumers.
TEST(ArgParser, RejectsNonFiniteDouble) {
  for (const char* bad : {"1e999", "-1e999", "inf", "-inf", "nan"}) {
    ArgParser p{"prog", "test"};
    p.add_double("x", 0.0, "h");
    std::ostringstream err;
    EXPECT_FALSE(parse(p, {"--x", bad}, err)) << bad;
    EXPECT_NE(err.str().find("out of range"), std::string::npos) << bad;
  }
}

TEST(ArgParser, RejectsMissingValue) {
  ArgParser p{"prog", "test"};
  p.add_string("name", "", "h");
  std::ostringstream err;
  EXPECT_FALSE(parse(p, {"--name"}, err));
}

TEST(ArgParser, HelpPrintsUsageAndFails) {
  ArgParser p{"prog", "my tool"};
  p.add_string("name", "d", "the name option");
  std::ostringstream err;
  EXPECT_FALSE(parse(p, {"--help"}, err));
  EXPECT_NE(err.str().find("my tool"), std::string::npos);
  EXPECT_NE(err.str().find("the name option"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Scenario mapping

TEST(ScenarioArgs, WeightListParsing) {
  auto w = parse_weight_list("1,2.5,3");
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(*w, (std::vector<double>{1.0, 2.5, 3.0}));
  EXPECT_FALSE(parse_weight_list("").has_value());
  EXPECT_FALSE(parse_weight_list("1,x").has_value());
  EXPECT_FALSE(parse_weight_list("1,-2").has_value());
}

// Regression: NaN compares false against `w <= 0.0`, so "nan" used to
// slip through and poison every normalized-rate computation; "inf" and
// overflowing literals ("1e999" parses to inf) passed outright.
TEST(ScenarioArgs, WeightListRejectsNonFiniteWeights) {
  EXPECT_FALSE(parse_weight_list("nan").has_value());
  EXPECT_FALSE(parse_weight_list("1,nan,2").has_value());
  EXPECT_FALSE(parse_weight_list("-nan").has_value());
  EXPECT_FALSE(parse_weight_list("inf").has_value());
  EXPECT_FALSE(parse_weight_list("1,inf").has_value());
  EXPECT_FALSE(parse_weight_list("1e999").has_value());
  EXPECT_FALSE(parse_weight_list("1,1e999,2").has_value());
}

// Regression: empty items between or around delimiters must not be
// silently skipped ("1,,2") or dropped ("1,2,", ",1").
TEST(ScenarioArgs, WeightListRejectsEmptyItems) {
  EXPECT_FALSE(parse_weight_list("1,,2").has_value());
  EXPECT_FALSE(parse_weight_list("1,2,").has_value());
  EXPECT_FALSE(parse_weight_list(",1").has_value());
  EXPECT_FALSE(parse_weight_list(",").has_value());
}

TEST(ScenarioArgs, DefaultsProduceFig5Corelite) {
  ArgParser p{"prog", "test"};
  register_scenario_options(p);
  std::ostringstream err;
  ASSERT_TRUE(parse(p, {}, err));
  auto spec = spec_from_args(p, err);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->mechanism, scenario::Mechanism::Corelite);
  EXPECT_EQ(spec->num_flows, 10u);
}

TEST(ScenarioArgs, FullOverrides) {
  ArgParser p{"prog", "test"};
  register_scenario_options(p);
  std::ostringstream err;
  ASSERT_TRUE(parse(p,
                    {"--scenario", "fig3", "--mechanism", "csfq", "--duration", "42",
                     "--seed", "99", "--epoch-ms", "50", "--k1", "2", "--qthresh", "12",
                     "--link-delay-ms", "10"},
                    err));
  auto spec = spec_from_args(p, err);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->mechanism, scenario::Mechanism::Csfq);
  EXPECT_EQ(spec->num_flows, 20u);
  EXPECT_DOUBLE_EQ(spec->duration.sec(), 42.0);
  EXPECT_EQ(spec->seed, 99u);
  EXPECT_DOUBLE_EQ(spec->corelite.core_epoch.ms(), 50.0);
  EXPECT_DOUBLE_EQ(spec->corelite.k1, 2.0);
  EXPECT_DOUBLE_EQ(spec->corelite.q_thresh_pkts, 12.0);
  EXPECT_DOUBLE_EQ(spec->topology.link_delay.ms(), 10.0);
}

TEST(ScenarioArgs, WeightsMustMatchFlowCount) {
  ArgParser p{"prog", "test"};
  register_scenario_options(p);
  std::ostringstream err;
  ASSERT_TRUE(parse(p, {"--weights", "1,2,3"}, err));  // fig5 has 10 flows
  EXPECT_FALSE(spec_from_args(p, err).has_value());
  EXPECT_NE(err.str().find("exactly 10"), std::string::npos);
}

TEST(ScenarioArgs, RejectsUnknownEnumValues) {
  for (const auto& bad : std::vector<std::vector<const char*>>{
           {"--scenario", "fig99"},
           {"--mechanism", "magic"},
           {"--selector", "psychic"},
           {"--detector", "vibes"},
           {"--adaptation", "none"},
           {"--pacing", "vibes"}}) {
    ArgParser p{"prog", "test"};
    register_scenario_options(p);
    std::ostringstream err;
    ASSERT_TRUE(parse(p, bad, err));
    EXPECT_FALSE(spec_from_args(p, err).has_value()) << bad[0] << " " << bad[1];
  }
}

TEST(ScenarioArgs, RejectsNegativeLinkDelay) {
  for (const char* scen : {"fig5", "gen-pl4-100"}) {
    ArgParser p{"prog", "test"};
    register_scenario_options(p);
    std::ostringstream err;
    ASSERT_TRUE(parse(p, {"--scenario", scen, "--link-delay-ms", "-5"}, err));
    EXPECT_FALSE(spec_from_args(p, err).has_value()) << scen;
    EXPECT_NE(err.str().find("--link-delay-ms must be >= 0"), std::string::npos) << scen;
  }
}

// Zero delay is a legal input, not a hang or a bug: the LP engine falls
// back to serial on it, and a short fig5 run at delay 0 processes about
// as many events as at 10 ms because every flow is still in slow start.
TEST(ScenarioArgs, AcceptsZeroLinkDelay) {
  for (const char* scen : {"fig5", "gen-pl4-100"}) {
    ArgParser p{"prog", "test"};
    register_scenario_options(p);
    std::ostringstream err;
    ASSERT_TRUE(parse(p, {"--scenario", scen, "--link-delay-ms", "0"}, err));
    const auto spec = spec_from_args(p, err);
    ASSERT_TRUE(spec.has_value()) << scen << ": " << err.str();
    EXPECT_EQ(spec->topology.link_delay, sim::TimeDelta::zero()) << scen;
    if (spec->generated.has_value()) {
      EXPECT_EQ(spec->generated->topology.cfg.link_delay, sim::TimeDelta::zero()) << scen;
    }
  }
}

TEST(ScenarioArgs, RejectsNonPositiveEpoch) {
  for (const char* epoch : {"0", "-1"}) {
    ArgParser p{"prog", "test"};
    register_scenario_options(p);
    std::ostringstream err;
    ASSERT_TRUE(parse(p, {"--epoch-ms", epoch}, err));
    EXPECT_FALSE(spec_from_args(p, err).has_value()) << epoch;
    EXPECT_NE(err.str().find("--epoch-ms must be > 0"), std::string::npos) << epoch;
  }
}

TEST(ScenarioArgs, MechanismHelpListsEveryTableRow) {
  ArgParser p{"prog", "test"};
  register_scenario_options(p);
  std::ostringstream err;
  EXPECT_FALSE(parse(p, {"--help"}, err));
  for (const scenario::MechanismRow& row : scenario::kMechanisms) {
    EXPECT_NE(err.str().find(row.name), std::string::npos) << row.name;
  }
}

TEST(ScenarioArgs, VariantSelectionsApply) {
  ArgParser p{"prog", "test"};
  register_scenario_options(p);
  std::ostringstream err;
  ASSERT_TRUE(parse(p,
                    {"--selector", "cache", "--detector", "ewma", "--adaptation", "aimd",
                     "--pacing", "poisson"},
                    err));
  auto spec = spec_from_args(p, err);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->corelite.selector, qos::SelectorKind::MarkerCache);
  EXPECT_EQ(spec->corelite.detector, qos::DetectorKind::Ewma);
  EXPECT_EQ(spec->corelite.adapt.kind, qos::AdaptKind::Aimd);
  EXPECT_EQ(spec->corelite.pacing, qos::PacingMode::Poisson);
}

// Builds a spec from `args`; true if it was refused with `message`.
bool spec_refused(std::vector<const char*> args, const std::string& message) {
  ArgParser p{"prog", "test"};
  register_scenario_options(p);
  std::ostringstream err;
  if (!parse(p, std::move(args), err)) return false;
  return !spec_from_args(p, err).has_value() && err.str().find(message) != std::string::npos;
}

// CongestionEstimator asserts q_thresh >= 0, which release builds
// compile out: the CLI is the only guard.
TEST(ScenarioArgs, RejectsNegativeQueueThreshold) {
  EXPECT_TRUE(spec_refused({"--qthresh", "-3"}, "--qthresh must be >= 0"));
  EXPECT_FALSE(spec_refused({"--qthresh", "0"}, "--qthresh"));
}

TEST(ScenarioArgs, RejectsNegativeCubicGain) {
  EXPECT_TRUE(spec_refused({"--kcubic", "-2"}, "--kcubic must be >= 0"));
  EXPECT_FALSE(spec_refused({"--kcubic", "0"}, "--kcubic"));
}

// K1 <= 0 would otherwise be clamped to a marker spacing of N_w = 1.
TEST(ScenarioArgs, RejectsNonPositiveK1) {
  for (const char* k1 : {"0", "-1"}) {
    EXPECT_TRUE(spec_refused({"--k1", k1}, "--k1 must be > 0")) << k1;
  }
}

// 0 means the scenario default; a negative duration is an error.
TEST(ScenarioArgs, RejectsNegativeDuration) {
  EXPECT_TRUE(spec_refused({"--scenario", "fig5", "--duration", "-5"},
                           "--duration must be >= 0"));
  ArgParser p{"prog", "test"};
  register_scenario_options(p);
  std::ostringstream err;
  ASSERT_TRUE(parse(p, {"--scenario", "fig5", "--duration", "0"}, err));
  const auto spec = spec_from_args(p, err);
  ASSERT_TRUE(spec.has_value()) << err.str();
  EXPECT_EQ(spec->duration.sec(), 80.0);  // fig5's default
}

/// Parses `args` and runs the sweep-mode check; its diagnostics land in `err`.
bool sweep_ok(std::vector<const char*> args, std::ostream& err) {
  ArgParser p{"prog", "test"};
  register_scenario_options(p);
  EXPECT_TRUE(parse(p, std::move(args), err));
  return sweep_args_valid(p, err);
}

// A sweep builds each run's spec from its grid cell; a per-run knob on
// the command line used to be dropped without a word.
TEST(ScenarioArgs, SweepRefusesEverySingleRunOption) {
  const std::vector<std::pair<const char*, const char*>> options = {
      {"--selector", "cache"},  {"--detector", "ewma"}, {"--adaptation", "aimd"},
      {"--pacing", "onoff"},    {"--epoch-ms", "400"},  {"--k1", "8"},
      {"--qthresh", "4"},       {"--kcubic", "0.2"},    {"--link-delay-ms", "10"},
      {"--fluid-band", "0.2"},  {"--fluid-dwell", "3"},  {"--config", "dumbbell.cls"}};
  for (const auto& [name, value] : options) {
    std::ostringstream err;
    EXPECT_FALSE(sweep_ok({name, value}, err)) << name;
    EXPECT_NE(err.str().find(std::string(name) + " is a single-run option"), std::string::npos)
        << err.str();
  }
  // Every offending option is named, not just the first.
  std::ostringstream err;
  EXPECT_FALSE(sweep_ok({"--k1", "8", "--pacing", "onoff"}, err));
  EXPECT_NE(err.str().find("--k1"), std::string::npos);
  EXPECT_NE(err.str().find("--pacing"), std::string::npos);
}

TEST(ScenarioArgs, SweepKeepsItsOwnOptionsAndChecksDuration) {
  std::ostringstream ok_err;
  EXPECT_TRUE(sweep_ok({"--scenario", "fig3", "--mechanism", "csfq", "--weights", "1,2",
                        "--seed", "3", "--lp", "2", "--fluid", "--duration", "10"},
                       ok_err))
      << ok_err.str();
  EXPECT_EQ(ok_err.str(), "");
  std::ostringstream err;
  EXPECT_FALSE(sweep_ok({"--duration", "-5"}, err));
  EXPECT_NE(err.str().find("--duration must be >= 0, got -5"), std::string::npos) << err.str();
}

const std::string kDumbbellScript = std::string(CORELITE_SCRIPTS_DIR) + "/dumbbell.cls";

/// The spec `args` build; asserts that they build one.
scenario::ScenarioSpec spec_of(std::vector<const char*> args) {
  ArgParser p{"prog", "test"};
  register_scenario_options(p);
  std::ostringstream err;
  EXPECT_TRUE(parse(p, std::move(args), err));
  auto spec = spec_from_args(p, err);
  EXPECT_TRUE(spec.has_value()) << err.str();
  return spec.value_or(scenario::ScenarioSpec{});
}

// --config is one more scenario source: the script's own mechanism,
// duration and seed unless the command line sets them, and every other
// single-run option on top.
TEST(ScenarioArgs, ConfigScriptIsAScenarioSource) {
  const auto plain = spec_of({"--config", kDumbbellScript.c_str()});
  EXPECT_EQ(plain.mechanism, scenario::Mechanism::Corelite);
  EXPECT_DOUBLE_EQ(plain.duration.sec(), 60.0);
  EXPECT_EQ(plain.seed, 5u);
  EXPECT_EQ(plain.num_flows, 2u);
  ASSERT_TRUE(plain.generated.has_value());
  EXPECT_EQ(plain.generated->topology.links[0].own.delay, sim::TimeDelta::millis(5));

  const auto set = spec_of({"--config", kDumbbellScript.c_str(), "--mechanism", "csfq",
                            "--duration", "7", "--seed", "9", "--lp", "2", "--fluid",
                            "--link-delay-ms", "12"});
  EXPECT_EQ(set.mechanism, scenario::Mechanism::Csfq);
  EXPECT_DOUBLE_EQ(set.duration.sec(), 7.0);
  EXPECT_EQ(set.seed, 9u);
  EXPECT_EQ(set.lp, 2u);
  EXPECT_TRUE(set.fluid.enabled);
  ASSERT_TRUE(set.generated.has_value());
  const scenario::GeneratedTopology& topo = set.generated->topology;
  EXPECT_EQ(topo.cfg.link_delay, sim::TimeDelta::millis(12));
  EXPECT_FALSE(topo.links[0].own.delay.has_value());  // every link takes the topology's
  EXPECT_FALSE(topo.source_links[0].delay.has_value());
}

TEST(ScenarioArgs, ConfigRefusesAnotherScenarioSource) {
  const char* path = kDumbbellScript.c_str();
  EXPECT_TRUE(spec_refused({"--config", path, "--scenario", "fig3"},
                           "--scenario cannot be combined with --config"));
  EXPECT_TRUE(spec_refused({"--config", path, "--weights", "1,2"},
                           "--weights cannot be combined with --config"));
  EXPECT_TRUE(spec_refused({"--config", "no/such/script.cls"}, "cannot open no/such/script.cls"));
}

// The script runner used to know only Corelite and CSFQ and ignored
// --mechanism: WFQ cores keep per-flow state, Corelite cores none.
TEST(ScenarioArgs, ConfigMechanismOverrideRunsWfqCores) {
  const auto wfq =
      spec_of({"--config", kDumbbellScript.c_str(), "--mechanism", "wfq", "--duration", "5"});
  ASSERT_EQ(wfq.mechanism, scenario::Mechanism::Wfq);
  EXPECT_GT(scenario::run_paper_scenario(wfq).core_flow_state, 0u);
  const auto corelite = spec_of({"--config", kDumbbellScript.c_str(), "--duration", "5"});
  EXPECT_EQ(scenario::run_paper_scenario(corelite).core_flow_state, 0u);
}

TEST(ScenarioArgs, RejectsNonPositiveAuditBand) {
  // corelite_sim registers --audit-band with the rest of the --audit family.
  const auto band_of = [](const char* value, std::ostream& err) {
    ArgParser p{"prog", "test"};
    p.add_double("audit-band", 0.40, "relative oracle-deviation band");
    EXPECT_TRUE(parse(p, {"--audit-band", value}, err));
    return audit_band_from_args(p, err);
  };
  for (const char* band : {"0", "-1"}) {
    std::ostringstream err;
    EXPECT_FALSE(band_of(band, err).has_value()) << band;
    EXPECT_NE(err.str().find("--audit-band must be > 0"), std::string::npos) << band;
  }
  std::ostringstream err;
  EXPECT_EQ(band_of("0.25", err), std::optional<double>{0.25});
}

}  // namespace
}  // namespace corelite::cli
