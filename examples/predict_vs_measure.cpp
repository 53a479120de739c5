// Example: the closed-form LIMD model vs the simulator.
//
// The paper's §2.2 appeals to "both simulations and analysis".  This
// example runs the Figure-5 startup scenario and prints, side by side,
// the analysis module's closed-form predictions and the measured
// values: slow-start exit, per-flow time-to-share, equilibrium queue,
// and the steady-state marker load.
//
// Build & run:  ./build/examples/predict_vs_measure
#include <cstdio>
#include <vector>

#include "analysis/limd_model.h"
#include "scenario/scenario.h"

namespace sc = corelite::scenario;
namespace an = corelite::analysis;

int main() {
  const auto spec = sc::fig5_simultaneous_start(sc::Mechanism::Corelite);
  std::printf("Closed-form LIMD predictions vs simulation (Figure-5 scenario)\n\n");

  const auto ss = an::predict_slow_start(spec.corelite.adapt);
  std::printf("slow start: exit at %.0f pkt/s after %.0f s (%d doublings)\n", ss.exit_rate_pps,
              ss.exit_time_sec, ss.doublings);

  const auto r = sc::run_paper_scenario(spec);
  const auto ideal = sc::ideal_rates_at(spec, corelite::sim::SimTime::seconds(40));

  std::printf("\n%-6s %-7s %-9s %-14s %-14s\n", "flow", "weight", "share", "t_pred[s]",
              "t_measured[s]");
  for (std::size_t i = 1; i <= spec.num_flows; ++i) {
    const auto f = static_cast<corelite::net::FlowId>(i);
    const double share = ideal.at(f);
    const double predicted =
        an::predict_time_to_share(spec.corelite.adapt, spec.corelite.edge_epoch, share);
    double measured = spec.duration.sec();
    for (const auto pt : r.tracker.series(f).allotted_rate) {
      if (pt.v >= share) {
        measured = pt.t;
        break;
      }
    }
    std::printf("%-6zu %-7.0f %-9.2f %-14.1f %-14.1f\n", i, spec.weights[i - 1], share,
                predicted, measured);
  }

  const double q_pred = an::predict_equilibrium_qavg(spec.corelite, 500.0, spec.num_flows);
  std::printf("\nequilibrium q_avg: predicted %.1f pkts, measured mean %.1f pkts (link C1-C2)\n",
              q_pred, r.mean_q_avg.empty() ? 0.0 : r.mean_q_avg[0]);

  std::vector<double> rates;
  std::vector<double> weights{1, 1, 2, 2, 3, 3, 4, 4, 5, 5};
  for (std::size_t i = 1; i <= spec.num_flows; ++i) {
    rates.push_back(
        r.tracker.series(static_cast<corelite::net::FlowId>(i)).allotted_rate.average_over(40, 80));
  }
  const double marker_pred = an::link_marker_rate_pps(rates, weights, spec.corelite.k1);
  const double marker_meas = static_cast<double>(r.markers_injected) / spec.duration.sec();
  std::printf("marker load: predicted %.0f markers/s at equilibrium, measured %.0f/s\n",
              marker_pred, marker_meas);
  std::printf("(the measured average includes the slow-start ramp, so it sits below\n"
              "the converged prediction)\n");
  return 0;
}
