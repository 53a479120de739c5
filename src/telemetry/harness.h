// Header-only glue between the telemetry layer and the experiment
// binaries (corelite_sim, scale_flows).
//
// Kept out of corelite_telemetry proper because it needs the scenario
// and runner types (PaperTopology, RunResult) and the library must stay
// below them in the dependency order; binaries already link everything.
#pragma once

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "runner/sweep.h"
#include "scenario/paper_topology.h"
#include "scenario/scenario.h"
#include "sim/hotpath.h"
#include "stats/flow_tracker.h"
#include "telemetry/manifest.h"
#include "telemetry/trace.h"
#include "telemetry/virtual_trace.h"

namespace corelite::telemetry {

/// Named wall-clock phases for the manifest: start() closes the current
/// phase and opens the next; stop() closes the last.
class PhaseTimer {
 public:
  void start(std::string name) {
    stop();
    current_ = std::move(name);
    t0_ = std::chrono::steady_clock::now();
    running_ = true;
  }

  void stop() {
    if (!running_) return;
    const double ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0_).count();
    phases_.emplace_back(std::move(current_), ms);
    running_ = false;
  }

  [[nodiscard]] const std::vector<std::pair<std::string, double>>& phases() const {
    return phases_;
  }

 private:
  std::vector<std::pair<std::string, double>> phases_;
  std::string current_;
  std::chrono::steady_clock::time_point t0_{};
  bool running_ = false;
};

/// Instrument hook tracing the run's congested links (the paper
/// topology's three core links, or a generated topology's designated
/// bottlenecks).  The collector is created inside the run (the network
/// only exists there) but parked in `slot`, which must outlive the run:
/// dying links notify it via on_link_destroyed, so destruction order is
/// safe either way.
[[nodiscard]] inline scenario::ScenarioSpec::InstrumentFn congested_link_instrument(
    TraceWriter& trace, std::unique_ptr<LinkTraceCollector>& slot) {
  return [&trace, &slot](net::Network& /*network*/, const std::vector<net::Link*>& congested) {
    slot = std::make_unique<LinkTraceCollector>(trace);
    for (net::Link* link : congested) {
      if (link != nullptr) slot->attach(*link);
    }
  };
}

/// Render the sweep's wall-clock execution (pid 2): one span per run on
/// its worker's track, from the RunResult bookkeeping the sweep runner
/// fills in.  Derived after the sweep completes, so recording costs the
/// workers nothing.
inline void add_wall_spans(TraceWriter& trace, const std::vector<runner::RunResult>& results) {
  trace.set_process_name(TraceWriter::kWallPid, "sweep wall-clock (us since start)");
  std::vector<bool> named;
  for (const auto& r : results) {
    if (!r.ok) continue;
    const int tid = static_cast<int>(r.worker);
    if (r.worker >= named.size()) named.resize(r.worker + 1, false);
    if (!named[r.worker]) {
      trace.set_thread_name(TraceWriter::kWallPid, tid, "worker " + std::to_string(r.worker));
      named[r.worker] = true;
    }
    const std::string name =
        runner::cell_key(r.desc) + " r" + std::to_string(r.desc.repeat);
    trace.add_complete(TraceWriter::kWallPid, tid, name, "run", r.wall_start_ms * 1000.0,
                       r.wall_ms * 1000.0, "events", static_cast<double>(r.events));
  }
}

/// Serialize `trace` to `path`; diagnostics to `err`.
inline bool write_trace_file(const TraceWriter& trace, const std::string& path,
                             std::ostream& err) {
  std::ofstream os{path};
  if (!os) {
    err << "cannot write " << path << "\n";
    return false;
  }
  trace.write(os);
  err << "wrote " << path << " (" << trace.event_count() << " events";
  if (trace.dropped_events() > 0) err << ", " << trace.dropped_events() << " over cap";
  err << ")\n";
  return true;
}

/// Serialize `manifest` to `path`; diagnostics to `err`.
inline bool write_manifest_file(const RunManifest& manifest, const std::string& path,
                                std::ostream& err) {
  std::ofstream os{path};
  if (!os) {
    err << "cannot write " << path << "\n";
    return false;
  }
  write_manifest(os, manifest);
  err << "wrote " << path << "\n";
  return true;
}

/// --profile: print every always-on counter, aggregated across every
/// run (and every sweep or LP worker thread) this process has executed
/// so far, under the heading "hot-path profile (<scope>)".
inline void print_hotpath_profile(const std::string& scope) {
  const sim::HotPathCounters c = sim::aggregated_hotpath_counters();
  std::printf("\nhot-path profile (%s)\n", scope.c_str());
  for (const sim::HotPathCounterField& f : sim::hotpath_counter_fields()) {
    std::printf("  %-20.*s %12llu\n", static_cast<int>(f.key.size()), f.key.data(),
                static_cast<unsigned long long>(c.*f.member));
  }
  std::printf("  %-20s %11.1f%%\n", "wheel_insert_rate", c.wheel_insert_rate() * 100.0);
}

/// --profile on a single run: what the run's measurement series hold.
inline void print_series_footprint(const stats::FlowTracker& tracker) {
  const stats::SeriesFootprint f = tracker.footprint();
  std::printf("  series footprint     %12.2f MB  (rate %zu, cumulative %zu, delay %zu points; "
              "delay %.2f MB)\n",
              static_cast<double>(f.series_bytes + f.delay_bytes) / 1e6, f.rate_points,
              f.cumulative_points, f.delay_points, static_cast<double>(f.delay_bytes) / 1e6);
}

}  // namespace corelite::telemetry
