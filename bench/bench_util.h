// Shared reporting helpers for the figure-reproduction benches.
//
// Each figure bench prints (a) the time series the paper plots, on a
// regular grid, and (b) a quantitative summary against the weighted
// max-min oracle so "does the shape hold?" is decidable from the text
// output alone.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "scenario/scenario.h"
#include "stats/csv_writer.h"
#include "stats/summary.h"

namespace corelite::benchutil {

/// Per-flow allotted rate (pkt/s) on a regular grid — the data behind
/// the paper's "Alloted rate" figures.
inline void print_rate_table(const scenario::ScenarioSpec& spec,
                             const scenario::ScenarioResult& r, double t0, double t1,
                             double dt) {
  std::printf("\nAllotted rate b_g(f) [pkt/s]\n%8s", "t[s]");
  for (std::size_t i = 1; i <= spec.num_flows; ++i) std::printf("  f%-5zu", i);
  std::printf("\n%8s", "w");
  for (std::size_t i = 1; i <= spec.num_flows; ++i) std::printf("  %-6.0f", spec.weights[i - 1]);
  std::printf("\n");
  for (double t = t0; t <= t1 + 1e-9; t += dt) {
    std::printf("%8.0f", t);
    for (std::size_t i = 1; i <= spec.num_flows; ++i) {
      std::printf("  %6.1f",
                  r.tracker.series(static_cast<net::FlowId>(i)).allotted_rate.value_at(t));
    }
    std::printf("\n");
  }
}

/// Per-flow cumulative delivered packets — the paper's Figure 4 series.
inline void print_cumulative_table(const scenario::ScenarioSpec& spec,
                                   const scenario::ScenarioResult& r, double t0, double t1,
                                   double dt) {
  std::printf("\nCumulative service (data packets delivered)\n%8s", "t[s]");
  for (std::size_t i = 1; i <= spec.num_flows; ++i) std::printf("  f%-6zu", i);
  std::printf("\n");
  for (double t = t0; t <= t1 + 1e-9; t += dt) {
    std::printf("%8.0f", t);
    for (std::size_t i = 1; i <= spec.num_flows; ++i) {
      std::printf("  %7.0f",
                  r.tracker.series(static_cast<net::FlowId>(i)).cumulative_delivered.value_at(t));
    }
    std::printf("\n");
  }
}

/// Ideal-vs-measured summary over [w0, w1] plus loss/fairness roll-up.
inline void print_summary(const char* title, const scenario::ScenarioSpec& spec,
                          const scenario::ScenarioResult& r, double w0, double w1,
                          double ideal_probe_t) {
  const auto score =
      scenario::steady_state_score(spec, r, w0, w1, sim::SimTime::seconds(ideal_probe_t));
  std::printf("\n%s — steady-state summary over [%.0f, %.0f] s\n", title, w0, w1);
  std::printf("%-6s %-7s %-9s %-9s %-7s %-10s\n", "flow", "weight", "ideal", "measured",
              "dev%", "converged");
  for (std::size_t i = 1; i <= spec.num_flows; ++i) {
    const double got = score.avg_rate[i - 1];
    const double want = score.ideal[i - 1];
    const double dev = want > 0.0 ? 100.0 * (got - want) / want : 0.0;
    const double conv =
        want > 0.0
            ? stats::convergence_time(
                  r.tracker.series(static_cast<net::FlowId>(i)).allotted_rate, want, w1)
            : 0.0;
    std::printf("%-6zu %-7.0f %-9.2f %-9.2f %+-7.1f t=%-.0fs\n", i, spec.weights[i - 1], want,
                got, dev, conv);
  }
  std::printf("weighted Jain index (steady state): %.4f\n", score.jain);
  std::printf("data drops: %llu total, %llu on congested links",
              static_cast<unsigned long long>(r.total_data_drops),
              static_cast<unsigned long long>(r.congested_link_drops));
  int steady_drops = 0;
  for (double t : r.drop_times) {
    if (t >= w0) ++steady_drops;
  }
  std::printf(" (%d in the summary window)\n", steady_drops);
  std::printf("feedback messages: %llu   markers injected: %llu   events: %llu\n",
              static_cast<unsigned long long>(r.feedback_messages),
              static_cast<unsigned long long>(r.markers_injected),
              static_cast<unsigned long long>(r.events_processed));
}

/// When the CORELITE_ARTIFACTS environment variable names a directory,
/// export the run's per-flow rate and cumulative-service series as CSV
/// plus a ready-to-run gnuplot script, so every figure bench can also
/// regenerate the actual plots.  No-op otherwise.
inline void maybe_export_artifacts(const char* name, const scenario::ScenarioSpec& spec,
                                   const scenario::ScenarioResult& r) {
  const char* dir = std::getenv("CORELITE_ARTIFACTS");
  if (dir == nullptr || *dir == '\0') return;
  const std::string base = std::string(dir) + "/" + name;

  std::map<std::string, stats::SeriesRef> rates;
  std::map<std::string, stats::SeriesRef> cum;
  for (std::size_t i = 1; i <= spec.num_flows; ++i) {
    const auto& fs = r.tracker.series(static_cast<net::FlowId>(i));
    rates.emplace("flow" + std::to_string(i), fs.allotted_rate);
    cum.emplace("flow" + std::to_string(i), fs.cumulative_delivered);
  }
  const double t_end = spec.duration.sec();
  {
    std::ofstream os{base + "_rates.csv"};
    if (os) stats::write_csv(os, rates, 0.0, t_end, 1.0);
  }
  {
    std::ofstream os{base + "_cumulative.csv"};
    if (os) stats::write_csv(os, cum, 0.0, t_end, 1.0);
  }
  {
    std::ofstream os{base + ".gp"};
    if (os) {
      os << "# gnuplot script regenerating the paper-style figure\n"
         << "set datafile separator ','\n"
         << "set key outside right\n"
         << "set xlabel 'time in seconds'\n"
         << "set ylabel 'alloted rate [pkt/s]'\n"
         << "set term pngcairo size 1000,600\n"
         << "set output '" << name << "_rates.png'\n"
         << "plot for [i=2:" << (spec.num_flows + 1) << "] '" << name
         << "_rates.csv' using 1:i with lines title columnheader(i)\n"
         << "set ylabel 'cumulative packets delivered'\n"
         << "set output '" << name << "_cumulative.png'\n"
         << "plot for [i=2:" << (spec.num_flows + 1) << "] '" << name
         << "_cumulative.csv' using 1:i with lines title columnheader(i)\n";
    }
  }
  std::fprintf(stderr, "artifacts written to %s_{rates,cumulative}.csv and %s.gp\n",
               base.c_str(), base.c_str());
}

}  // namespace corelite::benchutil
