// corelite_sim — run any paper scenario from the command line.
//
// Examples:
//   corelite_sim                                   # Figure-5 Corelite run
//   corelite_sim --scenario fig3 --mechanism csfq  # CSFQ on the churn run
//   corelite_sim --weights 1,1,1,1,1,5,5,5,5,5 --summary
//   corelite_sim --csv-rates rates.csv --csv-cum cum.csv
//   corelite_sim --detector ewma --adaptation aimd --pacing poisson
//   corelite_sim --config examples/scripts/dumbbell.cls --mechanism wfq --lp 2
//   corelite_sim --sweep 8 --jobs 4 --sweep-mechanisms corelite,csfq --json sweep.json
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cli/args.h"
#include "cli/scenario_args.h"
#include "runner/sweep.h"
#include "sim/hotpath.h"
#include "sim/parallel/thread_budget.h"
#include "stats/aggregate.h"
#include "stats/csv_writer.h"
#include "stats/json_writer.h"
#include "telemetry/engine_probe.h"
#include "telemetry/harness.h"
#include "telemetry/metrics.h"

namespace sc = corelite::scenario;
namespace rn = corelite::runner;
namespace tel = corelite::telemetry;

namespace {

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss{text};
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::string join_list(const std::vector<std::string>& items) {
  std::string out;
  for (const auto& s : items) {
    if (!out.empty()) out += ",";
    out += s;
  }
  return out;
}

/// --telemetry / --trace-out / --manifest / --heartbeat, shared by the
/// single-run and sweep paths.
struct TelemetryArgs {
  bool on = false;            ///< metrics + manifest enabled
  std::string trace_path;     ///< empty = no trace file
  std::string manifest_path;  ///< where the manifest goes when on
  double heartbeat_sec = 0.0;

  static TelemetryArgs from(const corelite::cli::ArgParser& parser) {
    TelemetryArgs t;
    t.trace_path = parser.get_string("trace-out");
    t.on = parser.get_flag("telemetry") || !t.trace_path.empty() || parser.get_flag("audit");
    t.manifest_path =
        parser.was_set("manifest") ? parser.get_string("manifest") : "run_manifest.json";
    t.heartbeat_sec = parser.get_double("heartbeat");
    tel::set_enabled(t.on);
    return t;
  }
};

void register_telemetry_options(corelite::cli::ArgParser& parser) {
  parser.add_flag("telemetry", "enable the metrics registry and write a run manifest");
  parser.add_string("trace-out", "",
                    "write a Chrome trace_event / Perfetto JSON trace here (implies --telemetry)");
  parser.add_string("manifest", "run_manifest.json",
                    "run-manifest path (written when telemetry is on)");
  parser.add_double("heartbeat", 0.0,
                    "sweep mode: print live progress to stderr every N seconds (0 = off)");
  parser.add_flag("audit",
                  "run the fairness auditor: per-window oracle-deviation telemetry + watchdog "
                  "(implies --telemetry; adds audit sampler events to the run)");
  parser.add_string("audit-out", "fairness_audit.json",
                    "audit JSON document path (written when --audit is on)");
  parser.add_double("audit-window", 6.4, "audit measurement window in seconds");
  parser.add_double("audit-band", 0.40,
                    "relative oracle-deviation band; beyond it a flow's window violates");
  parser.add_int("audit-watchdog", 4,
                 "consecutive violating windows before the watchdog fires (0 = disarm)");
  parser.add_string("flood", "",
                    "inject unresponsive floods: comma-separated flow:pps pairs, e.g. "
                    "'3:400,7:250' (sources ignore the adaptation protocol)");
}

/// --audit family, shared by the single-run and sweep paths.
struct AuditArgs {
  bool on = false;
  std::string out_path;
  tel::FairnessAuditConfig cfg;
  std::vector<double> flood_pps;  ///< 0-sized when --flood absent
  bool invalid = false;           ///< a diagnostic went to stderr

  static AuditArgs from(const corelite::cli::ArgParser& parser) {
    AuditArgs a;
    a.on = parser.get_flag("audit");
    a.out_path = parser.get_string("audit-out");
    a.cfg.enabled = a.on;
    a.cfg.window = corelite::sim::TimeDelta::seconds(
        std::max(1e-3, parser.get_double("audit-window")));
    const auto band = corelite::cli::audit_band_from_args(parser, std::cerr);
    if (!band.has_value()) {
      a.invalid = true;
      return a;
    }
    a.cfg.band = *band;
    const auto wd = parser.get_int("audit-watchdog");
    a.cfg.watchdog_enabled = wd > 0;
    if (wd > 0) a.cfg.watchdog_windows = static_cast<int>(wd);
    if (parser.was_set("flood")) {
      const std::string text = parser.get_string("flood");
      for (const std::string& item : split_list(text)) {
        const auto colon = item.find(':');
        const long id = std::strtol(item.c_str(), nullptr, 10);
        const double pps = colon == std::string::npos
                               ? -1.0
                               : std::strtod(item.c_str() + colon + 1, nullptr);
        if (colon == std::string::npos || id < 1 || !(pps > 0.0)) {
          std::fprintf(stderr, "malformed --flood list (expect flow:pps pairs)\n");
          a.invalid = true;
          break;
        }
        if (static_cast<std::size_t>(id) > a.flood_pps.size()) a.flood_pps.resize(id, 0.0);
        a.flood_pps[id - 1] = pps;
      }
    }
    return a;
  }
};

/// The trace and engine probes a run's outputs are read from.
struct Instruments {
  tel::TraceWriter trace;
  std::unique_ptr<tel::LinkTraceCollector> collector;
  tel::LpProfiler lp_profiler;
  tel::FluidFlightRecorder flight;
};

/// What a finished single run or sweep reports.  The caller sets the
/// run-identifying fields of `doc` (and `doc.fluid_stats` for a fluid
/// run) and of `manifest`, including its result digest.
struct RunOutputs {
  tel::AuditDocument doc;
  tel::RunManifest manifest;
  std::size_t lp = 1;
  std::function<void(tel::TraceWriter&)> add_wall_spans;
};

/// The outputs both modes share: the audit document and watchdog line
/// (--audit), then the digest line, the trace and the manifest
/// (--telemetry).  Returns the process exit code.
int write_run_outputs(RunOutputs out, const TelemetryArgs& tele, const AuditArgs& audit,
                      Instruments& in, tel::PhaseTimer& phases) {
  tel::AuditDocument& doc = out.doc;
  const tel::FairnessAuditReport* fairness = doc.fairness;
  if (in.lp_profiler.report().runs > 0) doc.engine = &in.lp_profiler.report();
  if (!in.flight.events().empty()) doc.fluid_cert = &in.flight;
  if (audit.on) {
    std::ofstream os{audit.out_path};
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", audit.out_path.c_str());
      return 1;
    }
    tel::write_audit_json(os, doc);
    std::fprintf(stderr, "wrote %s\n", audit.out_path.c_str());
    if (fairness != nullptr && fairness->watchdog_fired) {
      std::fprintf(stderr,
                   "fairness watchdog FIRED at %.1f s (window %llu) — see %s\n",
                   fairness->watchdog_t_sec,
                   static_cast<unsigned long long>(fairness->watchdog_window),
                   audit.out_path.c_str());
    }
  }
  if (!tele.on) return 0;

  tel::RunManifest& manifest = out.manifest;
  std::printf("result digest: %s\n", tel::digest_hex(manifest.result_digest).c_str());
  phases.stop();
  manifest.tool = "corelite_sim";
  manifest.hotpath = corelite::sim::aggregated_hotpath_counters();
  manifest.wall_phases_ms = phases.phases();
  auto& extra = manifest.extra;
  extra.emplace_back("hw_threads",
                     std::to_string(corelite::sim::par::ThreadBudget::hardware_threads()));
  if (out.lp > 1) extra.emplace_back("lp", std::to_string(out.lp));
  if (doc.fluid_stats != nullptr) {
    extra.emplace_back("fluid", "1");
    extra.emplace_back("fluid_ff_sec", std::to_string(doc.fluid_stats->fast_forwarded_sec));
    extra.emplace_back("fluid_jumps", std::to_string(doc.fluid_stats->jumps));
  }
  const bool tracing = !tele.trace_path.empty();
  if (tracing) {
    extra.emplace_back("trace", tele.trace_path);
    if (fairness != nullptr) tel::render_audit_trace(in.trace, *fairness);
    if (doc.engine != nullptr) tel::render_lp_trace(in.trace, *doc.engine);
    if (doc.fluid_cert != nullptr) tel::render_fluid_cert_trace(in.trace, in.flight);
  }
  if (fairness != nullptr) {
    extra.emplace_back("audit_windows", std::to_string(fairness->windows.size()));
    extra.emplace_back("audit_watchdog", fairness->watchdog_fired ? "1" : "0");
  }
  if (audit.on) extra.emplace_back("audit", audit.out_path);
  if (tracing) {
    out.add_wall_spans(in.trace);
    if (!tel::write_trace_file(in.trace, tele.trace_path, std::cerr)) return 1;
  }
  if (!tel::write_manifest_file(manifest, tele.manifest_path, std::cerr)) return 1;
  return 0;
}

// Sweep mode: seed × scenario × mechanism grid on a worker pool.
int run_sweep(const corelite::cli::ArgParser& parser) {
  if (!corelite::cli::sweep_args_valid(parser, std::cerr)) return 2;
  rn::SweepGrid grid;
  grid.repeats = static_cast<std::size_t>(parser.get_int("sweep"));
  grid.base_seed = static_cast<std::uint64_t>(parser.get_int("seed"));
  grid.duration_sec = parser.get_double("duration");
  grid.lp = static_cast<std::size_t>(std::max<std::int64_t>(0, parser.get_int("lp")));
  grid.lp_threads =
      static_cast<std::size_t>(std::max<std::int64_t>(0, parser.get_int("lp-threads")));
  grid.fluid = parser.get_flag("fluid");

  grid.scenarios = parser.was_set("sweep-scenarios")
                       ? split_list(parser.get_string("sweep-scenarios"))
                       : std::vector<std::string>{parser.get_string("scenario")};
  const std::vector<std::string> mech_names =
      parser.was_set("sweep-mechanisms") ? split_list(parser.get_string("sweep-mechanisms"))
                                         : std::vector<std::string>{parser.get_string("mechanism")};
  grid.mechanisms.clear();
  for (const std::string& name : mech_names) {
    const auto m = sc::mechanism_from_name(name);
    if (!m.has_value()) {
      std::fprintf(stderr, "unknown mechanism '%s'\n", name.c_str());
      return 2;
    }
    grid.mechanisms.push_back(*m);
  }
  if (grid.scenarios.empty() || grid.mechanisms.empty() || grid.repeats == 0) {
    std::fprintf(stderr, "empty sweep grid\n");
    return 2;
  }
  if (parser.was_set("weights")) {
    auto weights = corelite::cli::parse_weight_list(parser.get_string("weights"));
    if (!weights.has_value()) {
      std::fprintf(stderr, "malformed --weights list\n");
      return 2;
    }
    grid.weights = std::move(*weights);
    grid.num_flows = grid.weights.size();
  }

  const auto jobs = static_cast<std::size_t>(parser.get_int("jobs"));
  const std::vector<rn::RunDescriptor> runs = rn::expand_grid(grid);
  std::fprintf(stderr, "sweep: %zu runs (%zu scenario(s) x %zu mechanism(s) x %zu repeat(s)), %zu job(s)\n",
               runs.size(), grid.scenarios.size(), grid.mechanisms.size(), grid.repeats, jobs);

  const TelemetryArgs tele = TelemetryArgs::from(parser);
  const AuditArgs audit = AuditArgs::from(parser);
  if (audit.invalid) return 2;
  tel::PhaseTimer phases;
  phases.start("setup");
  Instruments in;

  rn::SweepRunner sweep_runner{jobs};
  if (!tele.trace_path.empty()) {
    // Virtual-time tracks come from run 0 only: one representative
    // universe, no observer cost on the rest of the grid.
    sweep_runner.set_run_instrument(0, tel::congested_link_instrument(in.trace, in.collector));
  }
  if (audit.on || !audit.flood_pps.empty() || tele.on) {
    // The audit (and the engine probes) ride run 0 only: the rest of
    // the grid keeps its digest-clean event stream, so the combined
    // digest stays --jobs-invariant even with the auditor on.
    sweep_runner.set_run_spec_hook(0, [&audit, &in, &tele](sc::ScenarioSpec& spec) {
      if (audit.on) spec.audit = audit.cfg;
      if (!audit.flood_pps.empty()) spec.flood_pps = audit.flood_pps;
      if (tele.on) {
        spec.lp_probe = &in.lp_profiler;
        spec.fluid_probe = &in.flight;
      }
    });
  }
  if (tele.heartbeat_sec > 0.0) sweep_runner.set_heartbeat(&std::cerr, tele.heartbeat_sec);
  if (!parser.get_flag("quiet")) {
    sweep_runner.set_progress([](const rn::RunResult& r, std::size_t done, std::size_t total) {
      std::fprintf(stderr, "  [%zu/%zu] %s repeat=%zu seed=%llu jain=%.4f (%.0f ms)\n", done,
                   total, rn::cell_key(r.desc).c_str(), r.desc.repeat,
                   static_cast<unsigned long long>(r.desc.seed), r.jain, r.wall_ms);
    });
  }
  phases.start("run");
  const std::vector<rn::RunResult> results = sweep_runner.run(runs);
  phases.start("report");

  corelite::stats::SweepAggregator agg;
  for (const auto& r : results) {
    if (!r.ok) {
      std::fprintf(stderr, "run %zu (%s) failed to build — unknown scenario or bad weights\n",
                   r.index, rn::cell_key(r.desc).c_str());
      return 2;
    }
    rn::record_metrics(agg, r);
  }
  const auto cells = agg.snapshot();

  const auto metric = [](const corelite::stats::SweepAggregator::Cell& cell,
                         const char* name) -> const corelite::stats::Accumulator* {
    for (const auto& m : cell.metrics) {
      if (m.name == name) return &m.acc;
    }
    return nullptr;
  };
  std::printf("%-28s %-4s %-20s %-14s %-14s\n", "cell", "n", "jain (mean+-ci95)", "drops",
              "events");
  for (const auto& cell : cells) {
    const auto* jain = metric(cell, "jain");
    const auto* drops = metric(cell, "total_drops");
    const auto* events = metric(cell, "events");
    if (jain == nullptr || drops == nullptr || events == nullptr) continue;
    std::printf("%-28s %-4zu %.4f +- %-8.4f %-14.0f %-14.0f\n", cell.name.c_str(), jain->count(),
                jain->mean(), jain->ci95_half_width(), drops->mean(), events->mean());
  }
  if (parser.get_flag("table")) {
    std::printf("\n%-6s %-28s %-20s %-10s %s\n", "run", "cell", "seed", "jain", "digest");
    for (const auto& r : results) {
      std::printf("%-6zu %-28s %-20llu %-10.4f %016llx\n", r.index, rn::cell_key(r.desc).c_str(),
                  static_cast<unsigned long long>(r.desc.seed), r.jain,
                  static_cast<unsigned long long>(r.digest));
    }
  }

  if (parser.was_set("json")) {
    std::ofstream os{parser.get_string("json")};
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", parser.get_string("json").c_str());
      return 1;
    }
    corelite::stats::SweepMetaJson meta;
    meta.title = "corelite_sim sweep";
    meta.runs = results.size();
    meta.repeats = grid.repeats;
    meta.base_seed = grid.base_seed;
    corelite::stats::write_sweep_json(os, meta, cells);
    std::fprintf(stderr, "wrote %s\n", parser.get_string("json").c_str());
  }
  if (parser.was_set("sweep-csv")) {
    std::ofstream os{parser.get_string("sweep-csv")};
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", parser.get_string("sweep-csv").c_str());
      return 1;
    }
    corelite::stats::write_sweep_csv(os, cells);
    std::fprintf(stderr, "wrote %s\n", parser.get_string("sweep-csv").c_str());
  }
  if (parser.get_flag("profile")) tel::print_hotpath_profile("process totals");

  RunOutputs out;
  out.doc.scenario = join_list(grid.scenarios);
  out.doc.mechanism = join_list(mech_names);
  out.doc.seed = results.empty() ? grid.base_seed : results[0].desc.seed;
  out.doc.fairness = !results.empty() && results[0].audit ? results[0].audit.get() : nullptr;
  out.manifest.scenario = out.doc.scenario;
  out.manifest.mechanism = out.doc.mechanism;
  out.manifest.base_seed = grid.base_seed;
  out.manifest.runs = results.size();
  out.manifest.jobs = jobs;
  for (const auto& r : results) out.manifest.events += r.events;
  out.manifest.result_digest = rn::combined_digest(results);
  out.lp = grid.lp;
  out.add_wall_spans = [&results](tel::TraceWriter& trace) {
    tel::add_wall_spans(trace, results);
  };
  return write_run_outputs(std::move(out), tele, audit, in, phases);
}

}  // namespace

int main(int argc, char** argv) {
  corelite::cli::ArgParser parser{
      "corelite_sim",
      "run a paper scenario, a generated workload or a scenario script under any mechanism"};
  corelite::cli::register_scenario_options(parser);
  parser.add_string("csv-rates", "", "write per-flow allotted-rate CSV to this path");
  parser.add_string("csv-cum", "", "write per-flow cumulative-service CSV to this path");
  parser.add_string("json", "", "write a machine-readable run summary to this path");
  parser.add_flag("table", "print the rate table on a 5 s grid");
  parser.add_flag("quiet", "suppress the per-flow summary");
  parser.add_int("sweep", 0,
                 "sweep mode: repeats per grid cell, seeded deterministically from --seed");
  parser.add_int("jobs", 1, "sweep worker threads (one simulation universe each)");
  parser.add_string("sweep-scenarios", "",
                    "comma-separated scenario list for the sweep grid (default: --scenario)");
  parser.add_string("sweep-mechanisms", "",
                    "comma-separated mechanism list for the sweep grid (default: --mechanism)");
  parser.add_string("sweep-csv", "", "write per-cell sweep statistics CSV to this path");
  parser.add_flag("profile",
                  "print every always-on counter (and, for one run, the "
                  "series footprint) after the run");
  register_telemetry_options(parser);

  if (!parser.parse(argc, argv, std::cerr)) return 2;

  if (parser.get_int("sweep") > 0) return run_sweep(parser);

  auto spec = corelite::cli::spec_from_args(parser, std::cerr);
  if (!spec.has_value()) return 2;
  const std::string scenario_name =
      parser.get_string(parser.was_set("config") ? "config" : "scenario");

  const TelemetryArgs tele = TelemetryArgs::from(parser);
  const AuditArgs audit = AuditArgs::from(parser);
  if (audit.invalid) return 2;
  tel::PhaseTimer phases;
  phases.start("setup");
  Instruments in;
  if (!tele.trace_path.empty()) {
    spec->instrument = tel::congested_link_instrument(in.trace, in.collector);
  }
  if (audit.on) spec->audit = audit.cfg;
  if (!audit.flood_pps.empty()) spec->flood_pps = audit.flood_pps;
  if (tele.on) {
    spec->lp_probe = &in.lp_profiler;
    spec->fluid_probe = &in.flight;
  }

  std::fprintf(stderr, "running %s / %s for %.0f s (seed %llu)...\n",
               scenario_name.c_str(), sc::mechanism_name(spec->mechanism).c_str(),
               spec->duration.sec(), static_cast<unsigned long long>(spec->seed));
  phases.start("run");
  const auto run_t0 = std::chrono::steady_clock::now();
  const auto result = sc::run_paper_scenario(*spec);
  const double run_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - run_t0)
          .count();
  phases.start("report");

  const double t_end = spec->duration.sec();
  const double w0 = t_end / 2.0;

  if (!parser.get_flag("quiet")) {
    const auto score =
        sc::steady_state_score(*spec, result, w0, t_end, corelite::sim::SimTime::seconds(w0));
    std::printf("%-6s %-7s %-9s %-9s %-9s %-9s\n", "flow", "weight", "ideal", "avg",
                "delivered", "dropped");
    for (std::size_t i = 1; i <= spec->num_flows; ++i) {
      const auto& fs = result.tracker.series(static_cast<corelite::net::FlowId>(i));
      std::printf("%-6zu %-7.1f %-9.2f %-9.2f %-9llu %-9llu\n", i, fs.weight, score.ideal[i - 1],
                  score.avg_rate[i - 1], static_cast<unsigned long long>(fs.delivered),
                  static_cast<unsigned long long>(fs.dropped));
    }
    std::printf("\nweighted Jain index [%g, %g]: %.4f\n", w0, t_end, score.jain);
    std::printf("data drops: %llu   feedback: %llu   events: %llu\n",
                static_cast<unsigned long long>(result.total_data_drops),
                static_cast<unsigned long long>(result.feedback_messages),
                static_cast<unsigned long long>(result.events_processed));
    if (result.fluid_stats.enabled) {
      std::printf("fluid: fast-forwarded %.1f s of %.1f s (%.1f%%) in %llu jump(s), "
                  "~%llu events elided\n",
                  result.fluid_stats.fast_forwarded_sec, t_end,
                  100.0 * result.fluid_stats.fast_forwarded_sec / t_end,
                  static_cast<unsigned long long>(result.fluid_stats.jumps),
                  static_cast<unsigned long long>(result.fluid_stats.events_elided_est));
    }
  }

  if (parser.get_flag("table")) {
    std::printf("\n%8s", "t[s]");
    for (std::size_t i = 1; i <= spec->num_flows; ++i) std::printf("  f%-5zu", i);
    std::printf("\n");
    for (double t = 0.0; t <= t_end + 1e-9; t += 5.0) {
      std::printf("%8.0f", t);
      for (std::size_t i = 1; i <= spec->num_flows; ++i) {
        std::printf("  %6.1f", result.tracker.series(static_cast<corelite::net::FlowId>(i))
                                   .allotted_rate.value_at(t));
      }
      std::printf("\n");
    }
  }

  auto dump_csv = [&](const std::string& path, bool cumulative) {
    std::map<std::string, corelite::stats::SeriesRef> series;
    for (std::size_t i = 1; i <= spec->num_flows; ++i) {
      const auto& fs = result.tracker.series(static_cast<corelite::net::FlowId>(i));
      series.emplace("flow" + std::to_string(i),
                     cumulative ? corelite::stats::SeriesRef{fs.cumulative_delivered}
                                : corelite::stats::SeriesRef{fs.allotted_rate});
    }
    std::ofstream os{path};
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return;
    }
    corelite::stats::write_csv(os, series, 0.0, t_end, 1.0);
    std::fprintf(stderr, "wrote %s\n", path.c_str());
  };
  if (parser.was_set("csv-rates")) dump_csv(parser.get_string("csv-rates"), false);
  if (parser.was_set("csv-cum")) dump_csv(parser.get_string("csv-cum"), true);

  if (parser.was_set("json")) {
    std::ofstream os{parser.get_string("json")};
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", parser.get_string("json").c_str());
      return 1;
    }
    corelite::stats::RunSummaryJson meta;
    meta.scenario = scenario_name;
    meta.mechanism = sc::mechanism_name(spec->mechanism);
    meta.duration_sec = t_end;
    meta.seed = spec->seed;
    meta.events = result.events_processed;
    meta.total_drops = result.total_data_drops;
    meta.window_start = w0;
    meta.window_end = t_end;
    corelite::stats::write_run_json(os, meta, result.tracker);
    std::fprintf(stderr, "wrote %s\n", parser.get_string("json").c_str());
  }
  if (parser.get_flag("profile")) {
    tel::print_hotpath_profile("process totals");
    tel::print_series_footprint(result.tracker);
  }

  RunOutputs out;
  out.doc.scenario = scenario_name;
  out.doc.mechanism = sc::mechanism_name(spec->mechanism);
  out.doc.seed = spec->seed;
  out.doc.fairness = result.audit_report.get();
  if (result.fluid_stats.enabled) out.doc.fluid_stats = &result.fluid_stats;
  out.manifest.scenario = out.doc.scenario;
  out.manifest.mechanism = out.doc.mechanism;
  out.manifest.base_seed = spec->seed;
  out.manifest.events = result.events_processed;
  out.manifest.result_digest = rn::result_digest(result);
  out.lp = spec->lp;
  out.add_wall_spans = [&](tel::TraceWriter& trace) {
    // One wall-clock span for the single run, so a single-run trace
    // also carries both clock domains.
    trace.set_process_name(tel::TraceWriter::kWallPid, "wall-clock (us since start)");
    trace.set_thread_name(tel::TraceWriter::kWallPid, 0, "main");
    trace.add_complete(tel::TraceWriter::kWallPid, 0,
                       scenario_name + "/" + sc::mechanism_name(spec->mechanism), "run", 0.0,
                       run_ms * 1000.0, "events", static_cast<double>(result.events_processed));
  };
  return write_run_outputs(std::move(out), tele, audit, in, phases);
}
