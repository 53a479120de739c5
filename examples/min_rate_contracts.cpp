// Example: per-flow minimum rate contracts (the Corelite extension the
// paper's conclusion mentions: "markers are used to ... enable it
// maintain the allowed transmission rate of individual flows").
//
// Ten flows share the Figure-2 topology.  Flow 1 (weight 1) buys a
// 120 pkt/s minimum-rate contract — far above its weighted share of
// ~16.7 pkt/s.  The edge router never throttles it below the floor;
// the remaining capacity is shared among the other flows in proportion
// to their weights, which the run demonstrates quantitatively.
//
// Build & run:  ./build/examples/min_rate_contracts
#include <cstdio>

#include "scenario/scenario.h"

namespace sc = corelite::scenario;

namespace {

void report(const char* title, const sc::ScenarioSpec& spec, const sc::ScenarioResult& r) {
  // The oracle's fixed point: each contract plus a weighted share of
  // the excess.
  const auto ideal = sc::ideal_rates_at(spec, corelite::sim::SimTime::seconds(40));
  std::printf("%s\n", title);
  std::printf("  %-6s %-7s %-10s %-9s %-11s %-9s\n", "flow", "weight", "contract", "ideal",
              "steady", "min(t>5)");
  for (std::size_t i = 1; i <= spec.num_flows; ++i) {
    const auto f = static_cast<corelite::net::FlowId>(i);
    const auto& fs = r.tracker.series(f);
    const double contract = i <= spec.min_rates.size() ? spec.min_rates[i - 1] : 0.0;
    std::printf("  %-6zu %-7.0f %-10.0f %-9.1f %-11.1f %-9.1f\n", i, spec.weights[i - 1],
                contract, ideal.at(f), fs.allotted_rate.average_over(40, 80),
                fs.allotted_rate.min_over(5, 80));
  }
  std::printf("  drops: %llu\n\n",
              static_cast<unsigned long long>(r.total_data_drops));
}

}  // namespace

int main() {
  std::printf("Minimum rate contracts on the Figure-5 population (weights ceil(i/2))\n\n");

  // Baseline: pure weighted fairness, no contracts.
  auto base = sc::fig5_simultaneous_start(sc::Mechanism::Corelite);
  report("Without contracts (pure weighted max-min):", base, sc::run_paper_scenario(base));

  // Flow 1 buys a 120 pkt/s floor.
  auto contracted = base;
  contracted.min_rates.assign(contracted.num_flows, 0.0);
  contracted.min_rates[0] = 120.0;
  report("With a 120 pkt/s contract for flow 1:", contracted,
         sc::run_paper_scenario(contracted));

  std::printf(
      "Expected shape: flow 1 never falls below 120 pkt/s (it keeps the\n"
      "contract plus its weighted share of the excess), while the other\n"
      "flows split the remaining ~380 pkt/s in proportion to their weights\n"
      "(~13 pkt/s per unit weight instead of ~16.7).  Only out-of-profile\n"
      "traffic is marked, so the contracted flow does not skew the cores'\n"
      "running-average rate.\n");
  return 0;
}
