// Example: the paper's network-dynamics experiment with CSV export.
//
// Runs the Figures 3/4 scenario (20 flows, churn at t=250 s and
// t=500 s) and writes two CSV files — per-flow allotted rate and
// cumulative service — ready for gnuplot/matplotlib, plus a console
// summary against the weighted max-min ideal.
//
// Usage:  ./build/examples/network_dynamics [output_dir]
#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "scenario/scenario.h"
#include "stats/csv_writer.h"

namespace sc = corelite::scenario;

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : ".";

  std::printf("Running the network-dynamics scenario (750 s, 20 flows)...\n");
  const auto spec = sc::fig3_network_dynamics(sc::Mechanism::Corelite);
  const auto result = sc::run_paper_scenario(spec);

  // CSV export.
  std::map<std::string, corelite::stats::SeriesRef> rates;
  std::map<std::string, corelite::stats::SeriesRef> cumulative;
  for (std::size_t i = 1; i <= spec.num_flows; ++i) {
    const auto& fs = result.tracker.series(static_cast<corelite::net::FlowId>(i));
    rates.emplace("flow" + std::to_string(i), fs.allotted_rate);
    cumulative.emplace("flow" + std::to_string(i), fs.cumulative_delivered);
  }
  const std::string rate_path = out_dir + "/corelite_rates.csv";
  const std::string cum_path = out_dir + "/corelite_cumulative.csv";
  {
    std::ofstream os{rate_path};
    corelite::stats::write_csv(os, rates, 0.0, 750.0, 1.0);
  }
  {
    std::ofstream os{cum_path};
    corelite::stats::write_csv(os, cumulative, 0.0, 750.0, 1.0);
  }
  std::printf("wrote %s and %s\n\n", rate_path.c_str(), cum_path.c_str());

  // Console summary: measured vs ideal in each phase.
  struct Phase {
    const char* name;
    double w0, w1, probe;
  };
  for (const Phase& ph : {Phase{"phase 1 (15 flows, 0-250 s)", 100, 240, 100},
                          Phase{"phase 2 (20 flows, 250-500 s)", 300, 490, 300},
                          Phase{"phase 3 (15 flows, 500-750 s)", 550, 740, 600}}) {
    const auto ideal = sc::ideal_rates_at(spec, corelite::sim::SimTime::seconds(ph.probe));
    std::printf("%s\n", ph.name);
    std::printf("  %-6s %-7s %-9s %-9s\n", "flow", "weight", "ideal", "measured");
    for (corelite::net::FlowId f : {1u, 2u, 5u, 9u, 11u, 15u, 16u}) {
      const double want = ideal.count(f) != 0 ? ideal.at(f) : 0.0;
      const double got =
          result.tracker.series(f).allotted_rate.average_over(ph.w0, ph.w1);
      std::printf("  %-6u %-7.0f %-9.2f %-9.2f\n", f, spec.weights[f - 1], want, got);
    }
  }
  std::printf("\ntotal drops across the run: %llu (of %llu delivered packets)\n",
              static_cast<unsigned long long>(result.total_data_drops),
              static_cast<unsigned long long>(result.tracker.total_delivered()));
  return 0;
}
