// Reproduces Figures 5 and 6 (paper §4.2): startup and steady-state
// behaviour, Corelite vs weighted CSFQ.
//
// 10 flows with weight ceil(i/2) start simultaneously; 80 s.  Expected
// shape: both mechanisms approximate the ideal weighted shares
// (16.7/33.3/50/66.7/83.3 pkt/s) in steady state, but Corelite
// converges faster — its flows receive no congestion notifications
// until near their fair share and experience no packet drops, while
// CSFQ's fair-share estimate is wrong during startup, causing drops and
// slower convergence (the paper reports ~30 s slower).
#include <cstdio>

#include "bench_util.h"

namespace sc = corelite::scenario;
namespace bu = corelite::benchutil;

namespace {

double run_one(const char* figure, sc::Mechanism m) {
  const auto spec = sc::fig5_simultaneous_start(m);
  const auto r = sc::run_paper_scenario(spec);
  bu::maybe_export_artifacts((std::string("fig5_6_") + sc::mechanism_name(m)).c_str(), spec, r);
  std::printf("\n== %s: %s ==\n", figure, sc::mechanism_name(m).c_str());
  bu::print_rate_table(spec, r, 0.0, 80.0, 4.0);
  bu::print_summary(sc::mechanism_name(m).c_str(), spec, r, 40.0, 80.0, 40.0);

  // Latest per-flow convergence time = the mechanism's convergence time.
  const auto ideal = sc::ideal_rates_at(spec, corelite::sim::SimTime::seconds(40));
  double latest = 0.0;
  for (std::size_t i = 1; i <= spec.num_flows; ++i) {
    const auto f = static_cast<corelite::net::FlowId>(i);
    latest = std::max(latest, corelite::stats::convergence_time(
                                  r.tracker.series(f).allotted_rate, ideal.at(f), 78.0));
  }
  std::printf("convergence (all flows within 30%% of ideal): t=%.0f s\n", latest);
  return latest;
}

}  // namespace

int main() {
  std::printf("== Figures 5 & 6: simultaneous startup, Corelite vs weighted CSFQ ==\n");
  std::printf("10 flows, weights ceil(i/2), all start at t=0; 80 s\n");
  const double t_corelite = run_one("Figure 5", sc::Mechanism::Corelite);
  const double t_csfq = run_one("Figure 6", sc::Mechanism::Csfq);
  std::printf("\n== Comparison ==\n");
  std::printf("Corelite converged by t=%.0f s; CSFQ by t=%.0f s (paper: Corelite ~30 s faster)\n",
              t_corelite, t_csfq);
  return 0;
}
