// The ablation table: every sensitivity sweep behind the paper's §3.1,
// §3.2 and §4.4 claims, one entry each.  `ablations` runs every entry,
// `ablations NAME...` the named ones; an unknown name exits 2.
//
// An entry is a base spec plus labelled rows, each changing one knob.
// measure() turns every run into the same columns (kColumns): drops,
// drops at or after the entry's steady time, mean q_avg, the steady-state
// Jain over [T/2, T] against ideal_rates_at(T/2), throughput, convergence
// (latest flow within 30% of its ideal, scanned back from T - 2 s),
// feedback, markers as % of data packets and pooled delay p50/p99.  An
// entry with several seeds prints each column's mean, sd, min and max.
// EXPERIMENTS.md records each entry's output and its verdict.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "scenario/scenario.h"
#include "stats/summary.h"

namespace sc = corelite::scenario;
namespace qos = corelite::qos;
namespace stats = corelite::stats;
using corelite::sim::SimTime;
using corelite::sim::TimeDelta;

namespace {

struct Row {
  std::string label;
  std::function<void(sc::ScenarioSpec&)> set;
};

struct Entry {
  const char* name;
  const char* title;
  sc::ScenarioSpec base;
  std::vector<Row> rows;
  double steady_after = 25.0;  ///< drops at or after this time (s) are steady
  std::uint64_t seeds = 1;     ///< base.seed, base.seed + 1, ...
};

struct Column {
  const char* header;
  int precision;
};

constexpr Column kColumns[] = {{"drops", 0},     {"steady", 0},   {"mean_q", 2}, {"jain", 4},
                               {"thru[pps]", 1}, {"conv[s]", 1},  {"feedback", 0},
                               {"mkr[%]", 1},    {"d50[ms]", 1},  {"d99[ms]", 1}};

/// One run of `spec`, as kColumns.
std::vector<double> measure(const sc::ScenarioSpec& spec, double steady_after) {
  const auto r = sc::run_paper_scenario(spec);
  const double t_end = spec.duration.sec();
  const auto score =
      sc::steady_state_score(spec, r, t_end / 2.0, t_end, SimTime::seconds(t_end / 2.0));
  const double steady = static_cast<double>(std::count_if(
      r.drop_times.begin(), r.drop_times.end(), [=](double t) { return t >= steady_after; }));
  double mean_q = 0.0;
  for (double q : r.mean_q_avg) mean_q += q;
  if (!r.mean_q_avg.empty()) mean_q /= static_cast<double>(r.mean_q_avg.size());
  double thru = 0.0;
  double conv = 0.0;
  for (std::size_t i = 0; i < spec.num_flows; ++i) {
    const auto& fs = r.tracker.series(static_cast<corelite::net::FlowId>(i + 1));
    thru += static_cast<double>(fs.delivered) / t_end;
    if (score.ideal[i] > 0.0) {
      conv = std::max(conv, stats::convergence_time(fs.allotted_rate, score.ideal[i], t_end - 2.0));
    }
  }
  double data_sent = 0.0;
  std::vector<double> delays;
  for (const auto& [id, fs] : r.tracker.all()) {
    data_sent += static_cast<double>(fs.sent);
    delays.insert(delays.end(), fs.delay_samples.begin(), fs.delay_samples.end());
  }
  const auto delay = stats::summarize(delays);
  return {static_cast<double>(r.total_data_drops),
          steady,
          mean_q,
          score.jain,
          thru,
          conv,
          static_cast<double>(r.feedback_messages),
          data_sent > 0.0 ? 100.0 * static_cast<double>(r.markers_injected) / data_sent : 0.0,
          delay.p50 * 1000.0,
          delay.p99 * 1000.0};
}

void print_row(const std::string& label, const std::vector<double>& values) {
  std::printf("%-24s", label.c_str());
  for (std::size_t c = 0; c < values.size(); ++c) {
    std::printf(" %10.*f", kColumns[c].precision, values[c]);
  }
  std::printf("\n");
}

void run_entry(const Entry& e) {
  std::printf("== %s: %s ==\nsteady drops from t=%g s; seeds %llu..%llu\n%-24s", e.name, e.title,
              e.steady_after, static_cast<unsigned long long>(e.base.seed),
              static_cast<unsigned long long>(e.base.seed + e.seeds - 1), "row");
  for (const Column& c : kColumns) std::printf(" %10s", c.header);
  std::printf("\n");
  for (const Row& row : e.rows) {
    std::vector<std::vector<double>> runs;
    for (std::uint64_t s = 0; s < e.seeds; ++s) {
      auto spec = e.base;
      row.set(spec);
      spec.seed = e.base.seed + s;
      runs.push_back(measure(spec, e.steady_after));
    }
    if (runs.size() == 1) {
      print_row(row.label, runs[0]);
      continue;
    }
    std::vector<stats::Summary> sums;
    for (std::size_t c = 0; c < std::size(kColumns); ++c) {
      std::vector<double> samples;
      for (const auto& run : runs) samples.push_back(run[c]);
      sums.push_back(stats::summarize(samples));
    }
    for (const auto& [name, field] :
         {std::pair{"mean", &stats::Summary::mean}, std::pair{"sd", &stats::Summary::stddev},
          std::pair{"min", &stats::Summary::min}, std::pair{"max", &stats::Summary::max}}) {
      std::vector<double> values;
      for (const auto& s : sums) values.push_back(s.*field);
      print_row(row.label + " " + name, values);
    }
  }
  std::printf("\n");
}

/// One row per value v: label fmt % v, knob set(spec, v).
std::vector<Row> sweep(const char* fmt, std::initializer_list<double> values,
                       void (*set)(sc::ScenarioSpec&, double)) {
  std::vector<Row> rows;
  for (double v : values) {
    char label[32];
    std::snprintf(label, sizeof label, fmt, v);
    rows.push_back({label, [set, v](sc::ScenarioSpec& s) { set(s, v); }});
  }
  return rows;
}

std::vector<Entry> table() {
  using Spec = sc::ScenarioSpec;
  const Spec fig5 = sc::fig5_simultaneous_start(sc::Mechanism::Corelite);
  std::vector<Entry> t;
  // §4.4: "not very sensitive" to the core epoch or to K1 (marker
  // spacing N_w = K1 * w); works "with channels with large latencies".
  t.push_back({"epoch", "core congestion epoch, fig5 startup", fig5,
               sweep("%.0f ms", {25, 50, 100, 200, 400}, [](Spec& s, double ms) {
                 s.corelite.core_epoch = TimeDelta::millis(ms);
               })});
  t.push_back({"k1", "marker spacing constant K1, fig5 startup", fig5,
               sweep("K1 = %.0f", {1, 2, 4, 8}, [](Spec& s, double k) { s.corelite.k1 = k; })});
  t.push_back({"latency", "per-link delay (1-link RTT = 6 x delay), fig5 startup", fig5,
               sweep("%.0f ms", {2, 10, 20, 40, 80}, [](Spec& s, double ms) {
                 s.topology.link_delay = TimeDelta::millis(ms);
               })});
  // §3.1: k = 0 lets queues build when the M/M/1 assumption fails.  The
  // step overload joins fig3's five late flows to a converged network at
  // 50 s; the literal F_n takes mu per epoch, a ~10x weaker M/M/1 term.
  const auto k_rows = sweep("k = %.3f", {0.0, 0.001, 0.01, 0.05, 0.2},
                            [](Spec& s, double k) { s.corelite.k_cubic = k; });
  Spec step = sc::fig3_network_dynamics(sc::Mechanism::Corelite);
  step.duration = SimTime::seconds(100);
  for (std::size_t f = 1; f <= 20; ++f) {
    const bool late = f == 1 || f == 9 || f == 10 || f == 11 || f == 16;
    step.activity[f - 1] = {{SimTime::seconds(late ? 50.0 : 0.0), SimTime::infinite()}};
  }
  Spec literal = fig5;
  literal.corelite.legacy_per_epoch_mu = true;
  t.push_back({"kcubic", "cubic self-correction gain k, fig5 startup", fig5, k_rows});
  t.push_back({"kcubic_step", "cubic gain k, step overload at 50 s", step, k_rows, 50.0});
  t.push_back({"kcubic_literal", "cubic gain k, the paper's literal per-epoch mu in F_n",
               literal, k_rows});
  // §3.1: F_n "works reasonably well even if the Poisson traffic
  // assumptions do not hold"; the estimation module "can be replaced".
  const auto pacing = [](const char* label, qos::PacingMode m, double on_ms, double off_ms) {
    return Row{label, [=](Spec& s) {
                 s.corelite.pacing = m;
                 if (on_ms > 0.0) {
                   s.corelite.on_off_burst = TimeDelta::millis(on_ms);
                   s.corelite.on_off_idle = TimeDelta::millis(off_ms);
                 }
               }};
  };
  t.push_back({"traffic", "source pacing vs the F_n M/M/1 assumptions, fig5 startup", fig5,
               {pacing("CBR (paper)", qos::PacingMode::Paced, 0, 0),
                pacing("Poisson", qos::PacingMode::Poisson, 0, 0),
                pacing("on/off 200ms/200ms", qos::PacingMode::OnOff, 200, 200),
                pacing("on/off 50ms/150ms", qos::PacingMode::OnOff, 50, 150),
                pacing("on/off 500ms/500ms", qos::PacingMode::OnOff, 500, 500)}});
  const auto detector = [](const char* label, qos::DetectorKind k) {
    return Row{label, [k](Spec& s) { s.corelite.detector = k; }};
  };
  t.push_back({"estimator", "congestion-estimation module, fig5 startup", fig5,
               {detector("epoch-average", qos::DetectorKind::EpochAverage),
                detector("busy+idle", qos::DetectorKind::BusyIdleCycle),
                detector("ewma", qos::DetectorKind::Ewma)}});
  // §4.4: other edge adaptation schemes (ongoing work in the paper).
  const auto adapt = [](const char* label, qos::AdaptKind k) {
    return Row{label, [k](Spec& s) { s.corelite.adapt.kind = k; }};
  };
  t.push_back({"adaptation", "edge rate-adaptation scheme, fig5 startup", fig5,
               {adapt("LIMD", qos::AdaptKind::Limd), adapt("AIMD", qos::AdaptKind::Aimd),
                adapt("MIMD", qos::AdaptKind::Mimd)}});
  // §3.2 vs §2.2 and every baseline: each kMechanisms row, then Corelite
  // with the marker cache.
  const auto mechanism = [](const char* label, sc::Mechanism m) {
    return Row{label, [m](Spec& s) { s.mechanism = m; }};
  };
  Entry selector{"selector", "in-network mechanism and marker selector, fig5 startup", fig5, {}};
  for (const sc::MechanismRow& m : sc::kMechanisms) {
    selector.rows.push_back(mechanism(m.name, m.mechanism));
  }
  selector.rows.push_back({"corelite+markercache", [](Spec& s) {
                             s.corelite.selector = qos::SelectorKind::MarkerCache;
                           }});
  t.push_back(std::move(selector));
  // The stateless selector's r_av EWMA gain x eligibility tolerance.
  Entry rav{"rav", "r_av gain x eligibility factor, fig5 startup", fig5, {}};
  for (double gain : {1.0, 0.5, 0.1, 0.02}) {
    for (double factor : {1.0, 0.95, 0.9, 0.8}) {
      char label[32];
      std::snprintf(label, sizeof label, "gain %.2f factor %.2f", gain, factor);
      rav.rows.push_back({label, [gain, factor](Spec& s) {
                            s.corelite.rav_gain = gain;
                            s.corelite.eligibility_factor = factor;
                          }});
    }
  }
  t.push_back(std::move(rav));
  // CSFQ's averaging constants, against Corelite's epoch insensitivity.
  t.push_back({"csfq_k", "CSFQ K = K_link = K_alpha, fig5 startup",
               sc::fig5_simultaneous_start(sc::Mechanism::Csfq),
               sweep("%.0f ms", {25, 50, 100, 200, 400}, [](Spec& s, double ms) {
                 s.csfq.k_flow = s.csfq.k_link = s.csfq.k_alpha = TimeDelta::millis(ms);
               })});
  // Failure injection beyond the paper: lossy markers and feedback.
  t.push_back({"feedback_loss", "control-packet loss rate on every link, fig5 startup", fig5,
               sweep("loss %.2f", {0.0, 0.02, 0.05, 0.1, 0.2, 0.4},
                     [](Spec& s, double p) { s.control_loss_rate = p; })});
  // The Figure-5/6 convergence claim over a distribution, not one run.
  t.push_back({"convergence", "Corelite vs weighted CSFQ over seeds, fig5 startup", fig5,
               {mechanism("corelite", sc::Mechanism::Corelite),
                mechanism("csfq", sc::Mechanism::Csfq)},
               25.0, 10});
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<Entry> entries = table();
  std::vector<const Entry*> chosen;
  for (int a = 1; a < argc; ++a) {
    const auto it = std::find_if(entries.begin(), entries.end(),
                                 [&](const Entry& e) { return std::strcmp(e.name, argv[a]) == 0; });
    if (it == entries.end()) {
      std::fprintf(stderr, "unknown ablation '%s'; known:", argv[a]);
      for (const Entry& e : entries) std::fprintf(stderr, " %s", e.name);
      std::fprintf(stderr, "\n");
      return 2;
    }
    chosen.push_back(&*it);
  }
  if (argc == 1) {
    for (const Entry& e : entries) chosen.push_back(&e);
  }
  for (const Entry* e : chosen) run_entry(*e);
  return 0;
}
