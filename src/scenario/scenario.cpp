#include "scenario/scenario.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string_view>
#include <utility>

#include "sim/random.h"

namespace corelite::scenario {

const MechanismRow& mechanism_row(Mechanism m) {
  for (const MechanismRow& row : kMechanisms) {
    if (row.mechanism == m) return row;
  }
  assert(false && "every Mechanism has a table row");
  return kMechanisms[0];
}

std::string mechanism_name(Mechanism m) { return mechanism_row(m).name; }

std::optional<Mechanism> mechanism_from_name(const std::string& name) {
  for (const MechanismRow& row : kMechanisms) {
    if (name == row.name) return row.mechanism;
  }
  return std::nullopt;
}

std::string mechanism_names() {
  std::string out;
  for (const MechanismRow& row : kMechanisms) {
    if (!out.empty()) out += ", ";
    out += row.name;
  }
  return out;
}

namespace {

/// Fixed topology seed for named "gen-isp*" scenarios: the name must
/// denote one stable topology instance (only the flow population varies
/// with the run seed), or sweep cells would not be comparable.
constexpr std::uint64_t kIspTopologySeed = 7;

/// Strictly positive decimal integer, nothing else; nullopt on junk,
/// empty, leading-zero-only or oversized input.
std::optional<std::size_t> parse_positive(const std::string& s) {
  if (s.empty() || s.size() > 9) return std::nullopt;
  std::size_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + static_cast<std::size_t>(c - '0');
  }
  if (v == 0) return std::nullopt;
  return v;
}

std::optional<ScenarioSpec> generated_scenario_from_name(const std::string& name, Mechanism m) {
  if (name.rfind("gen-", 0) != 0) return std::nullopt;
  std::string rest = name.substr(4);
  // "-steady" variant: no churn, arrivals compressed into the first 5%
  // of the run — one long converged phase, the fluid fast-forward
  // engine's best case (and the workload the >=3x speedup gate uses).
  bool steady = false;
  constexpr std::string_view kSteady = "-steady";
  if (rest.size() > kSteady.size() &&
      rest.compare(rest.size() - kSteady.size(), kSteady.size(), kSteady) == 0) {
    steady = true;
    rest.resize(rest.size() - kSteady.size());
  }
  const auto dash = rest.find('-');
  if (dash == std::string::npos) return std::nullopt;
  const std::string topo_part = rest.substr(0, dash);
  const auto flows = parse_positive(rest.substr(dash + 1));
  if (!flows.has_value() || *flows > 2'000'000) return std::nullopt;

  GeneratedTopology topo;
  if (topo_part.rfind("pl", 0) == 0) {
    const auto stages = parse_positive(topo_part.substr(2));
    if (!stages.has_value() || *stages > 64) return std::nullopt;
    topo = make_parking_lot(*stages);
  } else if (topo_part.rfind("ft", 0) == 0) {
    const auto k = parse_positive(topo_part.substr(2));
    if (!k.has_value() || *k < 2 || *k > 16 || *k % 2 != 0) return std::nullopt;
    topo = make_fat_tree(*k);
  } else if (topo_part.rfind("isp", 0) == 0) {
    const auto routers = parse_positive(topo_part.substr(3));
    if (!routers.has_value() || *routers < 2 || *routers > 512) return std::nullopt;
    topo = make_isp(*routers, kIspTopologySeed);
  } else {
    return std::nullopt;
  }

  ScenarioSpec s;
  s.mechanism = m;
  s.num_flows = *flows;
  s.duration = sim::SimTime::seconds(80);
  GeneratedWorkload wl;
  wl.topology = std::move(topo);
  wl.flows.num_flows = *flows;
  if (steady) {
    wl.flows.churn = false;
    wl.flows.arrival_span_frac = 0.05;
  }
  // Per-flow series cost O(flows x samples) memory: keep them up to
  // sweep-sized populations, counters-only at bench scale.
  wl.flows.record_series = *flows <= 20000;
  s.generated = std::move(wl);
  return s;
}

}  // namespace

std::optional<ScenarioSpec> scenario_by_name(const std::string& name, Mechanism m) {
  if (name == "fig3") return fig3_network_dynamics(m);
  if (name == "fig5") return fig5_simultaneous_start(m);
  if (name == "fig7") return fig7_staggered_start(m);
  if (name == "fig9") return fig9_churn(m);
  return generated_scenario_from_name(name, m);
}

// --------------------------------------------------------------------------
// Paper scenario factories.

namespace {

std::vector<double> fig3_weights(std::size_t n) {
  std::vector<double> w(n, 2.0);
  auto set = [&](std::size_t f, double v) {
    if (f <= n) w[f - 1] = v;
  };
  set(5, 3.0);
  set(15, 3.0);
  set(1, 1.0);
  set(11, 1.0);
  set(16, 1.0);
  return w;
}

std::vector<double> fig7_weights(std::size_t n) {
  std::vector<double> w(n, 2.0);
  auto set = [&](std::size_t f, double v) {
    if (f <= n) w[f - 1] = v;
  };
  set(1, 1.0);
  set(11, 1.0);
  set(16, 1.0);
  set(5, 3.0);
  set(10, 3.0);
  set(15, 3.0);
  return w;
}

}  // namespace

ScenarioSpec fig3_network_dynamics(Mechanism m) {
  ScenarioSpec s;
  s.mechanism = m;
  s.num_flows = 20;
  s.weights = fig3_weights(20);
  s.duration = sim::SimTime::seconds(760);
  s.activity.resize(20);
  for (std::size_t f = 1; f <= 20; ++f) {
    const bool late = (f == 1 || f == 9 || f == 10 || f == 11 || f == 16);
    if (late) {
      s.activity[f - 1] = {{sim::SimTime::seconds(250), sim::SimTime::seconds(500)}};
    } else {
      s.activity[f - 1] = {{sim::SimTime::zero(), sim::SimTime::seconds(750)}};
    }
  }
  return s;
}

ScenarioSpec fig5_simultaneous_start(Mechanism m) {
  ScenarioSpec s;
  s.mechanism = m;
  s.num_flows = 10;
  s.weights.resize(10);
  for (std::size_t i = 1; i <= 10; ++i) {
    s.weights[i - 1] = std::ceil(static_cast<double>(i) / 2.0);  // 1,1,2,2,3,3,4,4,5,5
  }
  s.duration = sim::SimTime::seconds(80);
  return s;
}

ScenarioSpec fig7_staggered_start(Mechanism m) {
  ScenarioSpec s;
  s.mechanism = m;
  s.num_flows = 20;
  s.weights = fig7_weights(20);
  s.duration = sim::SimTime::seconds(80);
  s.activity.resize(20);
  for (std::size_t f = 1; f <= 20; ++f) {
    s.activity[f - 1] = {{sim::SimTime::seconds(static_cast<double>(f - 1)),
                          sim::SimTime::infinite()}};
  }
  return s;
}

ScenarioSpec fig9_churn(Mechanism m) {
  ScenarioSpec s;
  s.mechanism = m;
  s.num_flows = 20;
  s.weights = fig7_weights(20);
  s.duration = sim::SimTime::seconds(160);
  s.activity.resize(20);
  for (std::size_t f = 1; f <= 20; ++f) {
    const double start = static_cast<double>(f - 1);
    // Live 60 s, pause 5 s, run again until the end of the experiment.
    s.activity[f - 1] = {{sim::SimTime::seconds(start), sim::SimTime::seconds(start + 60)},
                         {sim::SimTime::seconds(start + 65), sim::SimTime::infinite()}};
  }
  return s;
}

ScenarioSpec random_churn(Mechanism m, std::size_t num_flows, sim::TimeDelta mean_on,
                          sim::TimeDelta mean_off, sim::SimTime duration, std::uint64_t seed) {
  ScenarioSpec s;
  s.mechanism = m;
  s.num_flows = num_flows;
  s.duration = duration;
  s.seed = seed;
  s.weights.resize(num_flows);
  s.activity.resize(num_flows);
  sim::Rng rng{seed ^ 0x9e3779b97f4a7c15ULL};  // distinct stream from the sim's
  for (std::size_t i = 0; i < num_flows; ++i) {
    s.weights[i] = static_cast<double>(i % 3 + 1);
    double t = rng.exponential(mean_off.sec());
    std::vector<net::ActiveInterval> windows;
    while (t < duration.sec()) {
      const double on = rng.exponential(mean_on.sec());
      windows.push_back({sim::SimTime::seconds(t),
                         sim::SimTime::seconds(std::min(t + on, duration.sec()))});
      t += on + rng.exponential(mean_off.sec());
    }
    if (windows.empty()) {
      // Guarantee at least one active period per flow.
      windows.push_back({sim::SimTime::zero(), duration});
    }
    s.activity[i] = std::move(windows);
  }
  return s;
}

}  // namespace corelite::scenario
