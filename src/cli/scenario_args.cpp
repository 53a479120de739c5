#include "cli/scenario_args.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "scenario/config_script.h"

namespace corelite::cli {

void register_scenario_options(ArgParser& parser) {
  parser.add_string("scenario", "fig5",
                    "paper scenario: fig3 (network dynamics), fig5 (simultaneous start), "
                    "fig7 (staggered), fig9 (churn); or a generated workload "
                    "gen-{pl<stages>|ft<k>|isp<routers>}-<flows>, e.g. gen-pl8-1000 "
                    "(append -steady for a churn-free steady-state population)");
  parser.add_string("config", "",
                    "run the scenario script in this file instead of --scenario (see "
                    "examples/scripts); --mechanism, --duration and --seed override its lines");
  parser.add_string("mechanism", "corelite",
                    "in-network mechanism: " + scenario::mechanism_names());
  parser.add_string("selector", "stateless",
                    "corelite marker selector: stateless, cache");
  parser.add_string("detector", "epoch",
                    "corelite congestion detector: epoch, busyidle, ewma");
  parser.add_string("adaptation", "limd", "edge adaptation: limd, aimd, mimd");
  parser.add_string("pacing", "cbr", "source pacing: cbr, poisson, onoff");
  parser.add_string("weights", "",
                    "comma-separated per-flow weights overriding the scenario's");
  parser.add_double("duration", 0.0, "simulated seconds (0 = scenario default)");
  parser.add_int("seed", 1, "random seed");
  parser.add_int("lp", 1,
                 "logical processes for the parallel engine (1 = serial; clamped to "
                 "what the topology supports)");
  parser.add_int("lp-threads", 0,
                 "OS threads driving the LPs (0 = auto, budget-clamped to the hardware; "
                 "thread count never changes results)");
  parser.add_flag("fluid",
                  "hybrid fluid fast-forward: skip converged steady-state phases "
                  "analytically (serial only; results stay within the cross-check "
                  "tolerance of pure packet mode, but are not bit-identical)");
  parser.add_double("fluid-band", 0.12,
                    "fluid convergence band: per-flow rate EWMAs must stay within this "
                    "relative band for the dwell window before a fast-forward");
  parser.add_int("fluid-dwell", 6,
                 "consecutive in-band convergence checks required before a fast-forward");
  parser.add_double("epoch-ms", 100.0, "core congestion epoch [ms]");
  parser.add_double("k1", 1.0, "marker spacing constant K1");
  parser.add_double("qthresh", 8.0, "congestion threshold [packets]");
  parser.add_double("kcubic", 0.01, "cubic self-correction gain k");
  parser.add_double("link-delay-ms", 40.0, "per-link propagation delay [ms]");
}

std::optional<std::vector<double>> parse_weight_list(const std::string& text) {
  // A trailing delimiter would silently vanish in the getline loop below,
  // so an empty final item is rejected up front like any other empty item.
  if (text.empty() || text.back() == ',') return std::nullopt;
  std::vector<double> weights;
  std::stringstream ss{text};
  std::string item;
  while (std::getline(ss, item, ',')) {
    char* end = nullptr;
    const double w = std::strtod(item.c_str(), &end);
    // NaN compares false against <= and would slip through a plain
    // w <= 0.0 test; inf parses cleanly ("inf", "1e999").  Either one
    // poisons every normalized-rate computation downstream, so weights
    // must be finite and strictly positive.
    if (end == item.c_str() || *end != '\0' || !std::isfinite(w) || w <= 0.0) {
      return std::nullopt;
    }
    weights.push_back(w);
  }
  if (weights.empty()) return std::nullopt;
  return weights;
}

namespace {

/// --name must be finite and >= 0, or > 0 when `positive`.
bool in_range(const ArgParser& parser, const char* name, bool positive, std::ostream& err) {
  const double v = parser.get_double(name);
  if (std::isfinite(v) && v >= 0.0 && !(positive && v == 0.0)) return true;
  err << "--" << name << (positive ? " must be > 0, got " : " must be >= 0, got ") << v << "\n";
  return false;
}

/// Options spec_from_args applies that a sweep's grid cells do not carry.
constexpr const char* kSingleRunOnly[] = {
    "config", "selector", "detector",      "adaptation", "pacing",     "epoch-ms",
    "k1",     "qthresh",  "kcubic",        "link-delay-ms", "fluid-band", "fluid-dwell"};

}  // namespace

std::optional<scenario::ScenarioSpec> spec_from_args(const ArgParser& parser,
                                                     std::ostream& err) {
  const std::string& mech_name = parser.get_string("mechanism");
  const auto mech = scenario::mechanism_from_name(mech_name);
  if (!mech.has_value()) {
    err << "unknown mechanism '" << mech_name << "'\n";
    return std::nullopt;
  }

  // A script is the other scenario source; its mechanism, duration and
  // seed lines hold unless the options are set.
  const bool script = parser.was_set("config");
  std::optional<scenario::ScenarioSpec> maybe_spec;
  if (script) {
    for (const char* name : {"scenario", "weights"}) {
      if (parser.was_set(name)) {
        err << "--" << name << " cannot be combined with --config\n";
        return std::nullopt;
      }
    }
    std::ifstream in{parser.get_string("config")};
    if (!in) {
      err << "cannot open " << parser.get_string("config") << "\n";
      return std::nullopt;
    }
    maybe_spec = scenario::parse_scenario_script(in, err);
    if (maybe_spec.has_value() && parser.was_set("mechanism")) maybe_spec->mechanism = *mech;
  } else {
    maybe_spec = scenario::scenario_by_name(parser.get_string("scenario"), *mech);
    if (!maybe_spec.has_value()) err << "unknown scenario '" << parser.get_string("scenario") << "'\n";
  }
  if (!maybe_spec.has_value()) return std::nullopt;
  scenario::ScenarioSpec spec = std::move(*maybe_spec);

  const std::string& sel = parser.get_string("selector");
  if (sel == "stateless") {
    spec.corelite.selector = qos::SelectorKind::Stateless;
  } else if (sel == "cache") {
    spec.corelite.selector = qos::SelectorKind::MarkerCache;
  } else {
    err << "unknown selector '" << sel << "'\n";
    return std::nullopt;
  }

  const std::string& det = parser.get_string("detector");
  if (det == "epoch") {
    spec.corelite.detector = qos::DetectorKind::EpochAverage;
  } else if (det == "busyidle") {
    spec.corelite.detector = qos::DetectorKind::BusyIdleCycle;
  } else if (det == "ewma") {
    spec.corelite.detector = qos::DetectorKind::Ewma;
  } else {
    err << "unknown detector '" << det << "'\n";
    return std::nullopt;
  }

  const std::string& adapt = parser.get_string("adaptation");
  if (adapt == "limd") {
    spec.corelite.adapt.kind = qos::AdaptKind::Limd;
  } else if (adapt == "aimd") {
    spec.corelite.adapt.kind = qos::AdaptKind::Aimd;
  } else if (adapt == "mimd") {
    spec.corelite.adapt.kind = qos::AdaptKind::Mimd;
  } else {
    err << "unknown adaptation '" << adapt << "'\n";
    return std::nullopt;
  }
  spec.csfq.adapt.kind = spec.corelite.adapt.kind;

  const std::string& pacing = parser.get_string("pacing");
  if (pacing == "cbr") {
    spec.corelite.pacing = qos::PacingMode::Paced;
  } else if (pacing == "poisson") {
    spec.corelite.pacing = qos::PacingMode::Poisson;
  } else if (pacing == "onoff") {
    spec.corelite.pacing = qos::PacingMode::OnOff;
  } else {
    err << "unknown pacing '" << pacing << "'\n";
    return std::nullopt;
  }

  if (parser.was_set("weights")) {
    auto weights = parse_weight_list(parser.get_string("weights"));
    if (!weights.has_value()) {
      err << "malformed --weights list '" << parser.get_string("weights") << "'\n";
      return std::nullopt;
    }
    if (spec.generated.has_value()) {
      // Generated populations take the list (any length) as their
      // repeating weight cycle.
      spec.generated->flows.weight_cycle = std::move(*weights);
    } else {
      if (weights->size() != spec.num_flows) {
        err << "--weights needs exactly " << spec.num_flows << " entries, got "
            << weights->size() << "\n";
        return std::nullopt;
      }
      spec.weights = std::move(*weights);
    }
  }

  if (parser.get_double("duration") > 0.0) {
    spec.duration = sim::SimTime::seconds(parser.get_double("duration"));
  }
  if (!script || parser.was_set("seed")) {
    spec.seed = static_cast<std::uint64_t>(parser.get_int("seed"));
  }
  spec.lp = static_cast<std::size_t>(std::max<std::int64_t>(1, parser.get_int("lp")));
  spec.lp_threads = static_cast<std::size_t>(std::max<std::int64_t>(0, parser.get_int("lp-threads")));
  spec.fluid.enabled = parser.get_flag("fluid");
  if (parser.was_set("fluid-band")) {
    const double band = parser.get_double("fluid-band");
    if (!std::isfinite(band) || band <= 0.0 || band >= 1.0) {
      err << "--fluid-band must be in (0, 1), got " << parser.get_double("fluid-band") << "\n";
      return std::nullopt;
    }
    spec.fluid.band = band;
  }
  if (parser.was_set("fluid-dwell")) {
    if (parser.get_int("fluid-dwell") < 1) {
      err << "--fluid-dwell must be >= 1, got " << parser.get_int("fluid-dwell") << "\n";
      return std::nullopt;
    }
    spec.fluid.dwell_checks = static_cast<std::size_t>(parser.get_int("fluid-dwell"));
  }
  // A non-positive epoch (a zero-period core timer) or a negative link
  // delay (packets arriving before they leave) keeps the engine from
  // ever reaching the end of the run.  The marker spacing N_w = K1 * w
  // needs K1 > 0, and release builds compile out CongestionEstimator's
  // assert on q_thresh, k_cubic >= 0.  A duration of 0 means the
  // scenario default.
  for (const auto& [name, positive] :
       {std::pair{"epoch-ms", true}, std::pair{"link-delay-ms", false}, std::pair{"k1", true},
        std::pair{"qthresh", false}, std::pair{"kcubic", false}, std::pair{"duration", false}}) {
    if (!in_range(parser, name, positive, err)) return std::nullopt;
  }
  const double epoch_ms = parser.get_double("epoch-ms");
  const double delay_ms = parser.get_double("link-delay-ms");
  spec.corelite.core_epoch = sim::TimeDelta::millis(epoch_ms);
  spec.corelite.k1 = parser.get_double("k1");
  spec.corelite.q_thresh_pkts = parser.get_double("qthresh");
  spec.corelite.k_cubic = parser.get_double("kcubic");
  spec.topology.link_delay = sim::TimeDelta::millis(delay_ms);
  if (spec.generated.has_value() && parser.was_set("link-delay-ms")) {
    spec.generated->topology.set_link_delay(sim::TimeDelta::millis(delay_ms));
  }
  return spec;
}

bool sweep_args_valid(const ArgParser& parser, std::ostream& err) {
  bool ok = true;
  for (const char* name : kSingleRunOnly) {
    if (!parser.was_set(name)) continue;
    err << "--" << name << " is a single-run option; --sweep does not apply it\n";
    ok = false;
  }
  return in_range(parser, "duration", false, err) && ok;
}

std::optional<double> audit_band_from_args(const ArgParser& parser, std::ostream& err) {
  const double band = parser.get_double("audit-band");
  if (std::isfinite(band) && band > 0.0) return band;
  err << "--audit-band must be > 0, got " << band << "\n";
  return std::nullopt;
}

}  // namespace corelite::cli
