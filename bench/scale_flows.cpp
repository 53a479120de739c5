// Scalability: the point of core-statelessness.
//
// The paper's motivation (§1): core routers serve "hundreds of
// thousands of flows simultaneously", so per-flow state in the core
// does not scale.  This bench grows the flow population on the Figure-2
// topology and reports, per mechanism:
//   - the amount of per-flow state a core router carries, measured from
//     the routers themselves (Corelite/CSFQ: none — two scalars per
//     LINK regardless of flows; WFQ: tag state per active flow),
//   - fairness at scale, and
//   - simulator throughput (events and simulated-vs-wall time).
// WFQ runs alongside the two core-stateless schemes so the measured
// state column actually contrasts O(1) with O(flows).
//
// The population grid is one rn::expand_grid per population size, run
// through the sweep runner, so
//   --jobs N    runs N universes in parallel (rows stay in grid order
//               and are bit-identical to --jobs 1),
//   --sweep R   repeats every cell R times over seeds derived from
//               --seed S and adds a mean±ci95 fairness summary, and
//   --profile   prints the grid's hot-path op counters.
//
// After the grid, the SCALING CURVE runs generated workloads at bench
// scale — 1k → 10k → 100k flows on a generated topology (1M with
// --stretch), once per --lp-list entry — and the FLUID AXIS runs each
// count's steady variant as a packet/fluid pair.  Both axes are one
// descriptor list measured one run at a time, so each row's RSS and
// hot-path counter delta belong to that run alone; the rows land in
// BENCH_scale.json.  Each row is one deterministic generated scenario,
// so its digest doubles as a regression gate.
//   --curve A,B,...      flow counts, strictly increasing (empty: skip)
//   --curve-topo T       generated topology (pl8, ft4, isp32, ...)
//   --curve-duration S   simulated seconds per curve row
//   --lp-list A,B,...    LP counts each flow count runs at
//   --no-fluid-axis      skip the packet/fluid pairs
//   --fluid-duration S   simulated seconds per fluid-axis row
//   --stretch            append the 1M-flow stretch row
//
// Exit status: 2 on a bad option, 1 on a failed row or when an lp > 1
// row stepped on one thread does not reproduce its digest.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cli/args.h"
#include "runner/sweep.h"
#include "sim/hotpath.h"
#include "sim/parallel/thread_budget.h"
#include "stats/aggregate.h"
#include "telemetry/harness.h"

namespace sc = corelite::scenario;
namespace rn = corelite::runner;
namespace sim = corelite::sim;
namespace tel = corelite::telemetry;

namespace {

/// Current resident set size in KB from /proc/self/status (-1 if the
/// platform doesn't expose it — the JSON then records -1, not garbage).
long current_rss_kb() {
  std::ifstream in{"/proc/self/status"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::strtol(line.c_str() + 6, nullptr, 10);
  }
  return -1;
}

/// The process's peak RSS so far in KB (ru_maxrss is KB on Linux): a
/// high-water mark over every row run before, not this row's alone.
long peak_rss_kb() {
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return -1;
  return ru.ru_maxrss;
}

/// The entries of the comma list given to --`name`: positive integers,
/// none repeated, and strictly increasing when `increasing`.  nullopt,
/// after a message naming the option and the entry, on anything else.
std::optional<std::vector<std::size_t>> parse_counts(const std::string& list, const char* name,
                                                     bool increasing) {
  std::vector<std::size_t> out;
  std::stringstream ss{list};
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    char* end = nullptr;
    // strtoull silently wraps negatives; reject the sign up front so
    // "-100" fails as non-positive instead of becoming 2^64-100.
    const unsigned long long v = item[0] == '-' ? 0 : std::strtoull(item.c_str(), &end, 10);
    const char* why = nullptr;
    if (v == 0 || end == item.c_str() || *end != '\0') {
      why = "must be a positive integer";
    } else if (increasing && !out.empty() && v <= out.back()) {
      why = "must be above the entry before it (sorted, no duplicates)";
    } else if (std::find(out.begin(), out.end(), v) != out.end()) {
      why = "is repeated";
    }
    if (why != nullptr) {
      std::fprintf(stderr, "--%s entry '%s' %s\n", name, item.c_str(), why);
      return std::nullopt;
    }
    out.push_back(static_cast<std::size_t>(v));
  }
  return out;
}

/// One curve or fluid-axis row: the run, plus what only a serial loop
/// can attribute to it.
struct CurveRow {
  rn::RunResult r;
  sim::HotPathCounters ops;  ///< counted during this run alone
  /// Wall of this scenario's serial packet row over this row's wall:
  /// speedup_vs_packet on a fluid row, speedup_vs_serial otherwise.
  double speedup = 0.0;
  /// Ran, and for lp > 1 the same run stepped on one thread reproduced
  /// its digest (the engine's determinism contract).
  bool ok = false;
  long rss_kb = -1;
  long peak_kb = -1;  ///< process high-water mark when the row ends
};

}  // namespace

int main(int argc, char** argv) {
  corelite::cli::ArgParser parser{
      "scale_flows",
      "flow-population grid, generated-workload scaling curve and fluid axis (BENCH_scale.json)"};
  parser.add_int("jobs", 1, "population-grid runs executed in parallel");
  parser.add_int("sweep", 1, "repeats of every population-grid cell, over derived seeds");
  parser.add_int("seed", 1, "base seed every run's seed derives from");
  parser.add_flag("profile", "print the population grid's hot-path op counters");
  parser.add_string("curve", "1000,10000,100000",
                    "scaling-curve flow counts, strictly increasing (empty: no curve)");
  parser.add_string("curve-topo", "pl8", "generated topology of the curve (pl8, ft4, isp32, ...)");
  parser.add_double("curve-duration", 10.0, "simulated seconds per curve row");
  parser.add_string("lp-list", "1,4", "LP counts every curve flow count runs at");
  parser.add_flag("no-fluid-axis", "skip the packet/fluid pair per flow count");
  parser.add_double("fluid-duration", 300.0, "simulated seconds per fluid-axis row");
  parser.add_flag("stretch", "append the 1M-flow row to the curve");
  if (!parser.parse(argc, argv, std::cerr)) return 2;
  for (const char* name : {"jobs", "sweep"}) {
    if (parser.get_int(name) < 1) {
      std::fprintf(stderr, "--%s must be >= 1, got %lld\n", name,
                   static_cast<long long>(parser.get_int(name)));
      return 2;
    }
  }
  for (const char* name : {"curve-duration", "fluid-duration"}) {
    if (parser.get_double(name) <= 0.0) {
      std::fprintf(stderr, "--%s must be > 0, got %g\n", name, parser.get_double(name));
      return 2;
    }
  }
  auto curve = parse_counts(parser.get_string("curve"), "curve", true);
  auto lps = parse_counts(parser.get_string("lp-list"), "lp-list", false);
  if (!curve.has_value() || !lps.has_value()) return 2;
  if (lps->empty()) lps->push_back(1);
  if (parser.get_flag("stretch") && (curve->empty() || curve->back() < 1000000)) {
    curve->push_back(1000000);
  }
  const auto jobs = static_cast<std::size_t>(parser.get_int("jobs"));
  const auto repeats = static_cast<std::size_t>(parser.get_int("sweep"));
  const auto base_seed = static_cast<std::uint64_t>(parser.get_int("seed"));
  const std::string curve_topo = parser.get_string("curve-topo");
  const double curve_duration = parser.get_double("curve-duration");
  const double fluid_duration = parser.get_double("fluid-duration");

  // ---- Population grid: Figure-2 topology, weights 1,2,3 repeating ------
  std::vector<rn::RunDescriptor> runs;
  for (const std::size_t n : {10u, 20u, 40u, 80u}) {
    rn::SweepGrid grid;
    grid.scenarios = {"fig5"};  // Figure-2 topology with the population overridden
    grid.mechanisms = {sc::Mechanism::Corelite, sc::Mechanism::Csfq, sc::Mechanism::Wfq};
    grid.repeats = repeats;
    grid.base_seed = base_seed;
    grid.duration_sec = 60.0;
    grid.num_flows = n;
    for (std::size_t i = 0; i < n; ++i) grid.weights.push_back(static_cast<double>(i % 3 + 1));
    const std::vector<rn::RunDescriptor> cells = rn::expand_grid(grid);
    runs.insert(runs.end(), cells.begin(), cells.end());
  }

  std::printf("Scalability: flow population sweep (Figure-2 topology, 60 s runs)\n");
  std::printf("%zu runs, %zu job(s), %zu repeat(s) per cell\n\n", runs.size(), jobs, repeats);
  std::printf("%-8s %-10s %-8s %-10s %-10s %-12s %-14s %-12s\n", "flows", "mech", "rep", "jain",
              "drops", "events", "wall[ms]", "core state");

  rn::SweepRunner runner{jobs};
  const auto results = runner.run(runs);

  corelite::stats::SweepAggregator agg;
  for (const auto& r : results) {
    if (!r.ok) {
      std::printf("%-8zu %-10s run failed\n", r.desc.num_flows,
                  sc::mechanism_name(r.desc.mechanism).c_str());
      continue;
    }
    rn::record_metrics(agg, r);
    char state[32];
    std::snprintf(state, sizeof state, "%zu flows", r.core_flow_state);
    std::printf("%-8zu %-10s %-8zu %-10.4f %-10llu %-12llu %-14.1f %-12s\n", r.desc.num_flows,
                sc::mechanism_name(r.desc.mechanism).c_str(), r.desc.repeat, r.jain,
                static_cast<unsigned long long>(r.total_drops),
                static_cast<unsigned long long>(r.events), r.wall_ms, state);
  }

  if (repeats > 1) {
    std::printf("\nPer-cell fairness over %zu seeds\n%-28s %-4s %-22s\n", repeats, "cell", "n",
                "jain (mean +- ci95)");
    for (const auto& cell : agg.snapshot()) {
      for (const auto& m : cell.metrics) {
        if (m.name != "jain") continue;
        std::printf("%-28s %-4zu %.4f +- %.4f\n", cell.name.c_str(), m.acc.count(),
                    m.acc.mean(), m.acc.ci95_half_width());
      }
    }
  }

  if (parser.get_flag("profile")) {
    tel::print_hotpath_profile("totals across all " + std::to_string(runs.size()) + " runs");
  }

  std::printf(
      "\nExpected shape: weighted fairness holds as the population grows (the\n"
      "per-unit-weight share shrinks toward the LIMD oscillation amplitude, so\n"
      "jain decays gently); measured core flow state stays 0 for the core-\n"
      "stateless schemes at every scale while WFQ's grows with the population\n"
      "— the paper's scalability argument.\n");
  if (curve->empty()) return 0;

  // ---- Scaling curve and fluid axis: one list, measured serially --------
  // The curve runs every flow count once per LP count.  The fluid axis
  // runs the count's steady variant (no churn, arrivals compressed into
  // the first 5%), long enough that converged cruise dominates, first as
  // a packet twin and then with jumps enabled.  Serial packet rows carry
  // the convergence detector in observe-only mode: the packet results
  // stay authoritative while the row records how much of its simulated
  // time was fast-forwardable, and the twin carries the same detector
  // workload as its fluid row, so the fluid speedup isolates event
  // elision.  The detector is serial, so lp > 1 rows skip it.
  std::vector<rn::RunDescriptor> plan;
  const auto add_row = [&](const std::string& scenario, std::size_t flows, double duration,
                           std::size_t lp, bool fluid) {
    rn::SweepGrid grid;
    grid.scenarios = {scenario};
    grid.base_seed = base_seed;
    grid.duration_sec = duration;
    grid.num_flows = flows;
    grid.lp = lp;
    grid.fluid = fluid;
    for (rn::RunDescriptor d : rn::expand_grid(grid)) {
      d.fluid_observe = !fluid && lp <= 1;
      plan.push_back(std::move(d));
    }
  };
  const std::string prefix = "gen-" + curve_topo + "-";
  for (const std::size_t n : *curve) {
    for (const std::size_t lp : *lps) {
      add_row(prefix + std::to_string(n), n, curve_duration, lp, false);
    }
  }
  if (!parser.get_flag("no-fluid-axis")) {
    for (const std::size_t n : *curve) {
      for (const bool fluid : {false, true}) {
        add_row(prefix + std::to_string(n) + "-steady", n, fluid_duration, 1, fluid);
      }
    }
  }

  const std::size_t hw_threads = sim::par::ThreadBudget::hardware_threads();
  std::printf("\nScaling curve (gen-%s, %.1f s per row) and fluid axis (gen-%s-*-steady, %.1f s "
              "per row): corelite, %zu hw thread(s)\n",
              curve_topo.c_str(), curve_duration, curve_topo.c_str(), fluid_duration, hw_threads);
  std::printf("%-24s %-4s %-7s %-12s %-12s %-10s %-12s %-10s %-8s %-8s %-6s %-8s %-8s %-8s %-8s\n",
              "scenario", "lp", "mode", "wall[ms]", "events", "ev/s", "delivered", "drops",
              "jain", "ff[s]", "jumps", "steady%", "speedup", "rss[MB]", "peak[MB]");
  std::vector<CurveRow> rows;
  for (const rn::RunDescriptor& d : plan) {
    CurveRow row;
    sim::reset_hotpath_counters();
    row.r = rn::execute_run(d);
    row.ops = sim::aggregated_hotpath_counters();
    row.ok = row.r.ok;
    if (row.ok && d.lp > 1) {
      // Determinism witness: the digest is a function of (spec, lp
      // count), never of the OS thread count — re-run the same row
      // stepped on one thread and compare.
      rn::RunDescriptor stepped = d;
      stepped.lp_threads = 1;
      const rn::RunResult rs = rn::execute_run(stepped);
      row.ok = rs.ok && rs.digest == row.r.digest;
      if (!row.ok) {
        std::fprintf(stderr, "DIGEST MISMATCH: %s lp=%zu auto-threads %s vs 1-thread %s\n",
                     d.scenario.c_str(), d.lp, tel::digest_hex(row.r.digest).c_str(),
                     tel::digest_hex(rs.digest).c_str());
      }
    }
    row.rss_kb = current_rss_kb();
    row.peak_kb = peak_rss_kb();
    // Baseline: this scenario's serial packet row, which may be this one.
    double base_wall_ms = d.lp <= 1 && !d.fluid ? row.r.wall_ms : 0.0;
    for (const CurveRow& b : rows) {
      if (b.r.desc.scenario == d.scenario && b.r.desc.lp <= 1 && !b.r.desc.fluid) {
        base_wall_ms = b.r.wall_ms;
      }
    }
    if (base_wall_ms > 0.0 && row.r.wall_ms > 0.0) row.speedup = base_wall_ms / row.r.wall_ms;
    const rn::RunResult& r = row.r;
    if (!r.ok) {
      std::printf("%-24s run failed\n", d.scenario.c_str());
    } else {
      std::printf(
          "%-24s %-4zu %-7s %-12.1f %-12llu %-10.3g %-12llu %-10llu %-8.4f %-8.1f %-6llu %-8.1f "
          "%-8.2f %-8.1f %-8.1f\n",
          d.scenario.c_str(), d.lp, d.fluid ? "fluid" : "packet", r.wall_ms,
          static_cast<unsigned long long>(r.events),
          r.wall_ms > 0.0 ? static_cast<double>(r.events) / (r.wall_ms / 1e3) : 0.0,
          static_cast<unsigned long long>(r.delivered),
          static_cast<unsigned long long>(r.total_drops), r.jain, r.fluid_ff_sec,
          static_cast<unsigned long long>(r.fluid_jumps),
          (r.fluid_steady_sec + r.fluid_ff_sec) / d.duration_sec * 100.0, row.speedup,
          static_cast<double>(row.rss_kb) / 1024.0, static_cast<double>(row.peak_kb) / 1024.0);
    }
    rows.push_back(std::move(row));
  }

  std::FILE* f = std::fopen("BENCH_scale.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_scale.json\n");
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"scale_flows_curve\",\n");
  std::fprintf(f, "  \"topology\": \"%s\",\n", curve_topo.c_str());
  std::fprintf(f, "  \"mechanism\": \"corelite\",\n");
  std::fprintf(f, "  \"duration_sec\": %.6g,\n", curve_duration);
  std::fprintf(f, "  \"base_seed\": %llu,\n", static_cast<unsigned long long>(base_seed));
  std::fprintf(f, "  \"hw_threads\": %zu,\n", hw_threads);
  std::fprintf(f, "  \"rows\": [\n");
  bool any_failed = false;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const CurveRow& row = rows[i];
    const rn::RunResult& r = row.r;
    const sim::HotPathCounters& ops = row.ops;
    any_failed = any_failed || !row.ok;
    const double events = static_cast<double>(r.events);
    std::fprintf(f,
                 "    {\"flows\": %zu, \"scenario\": \"%s\", \"lp\": %zu, \"hw_threads\": %zu, "
                 "\"fluid\": %s, \"ok\": %s, \"wall_ms\": %.3f, "
                 "\"events\": %llu, \"events_per_sec\": %.6g, \"events_per_flow\": %.6g, "
                 "\"steady_state_fraction\": %.6g, \"fluid_ff_sec\": %.6g, "
                 "\"fluid_jumps\": %llu, \"fluid_events_elided\": %llu, "
                 "\"cert_attempts\": %llu, \"cert_rejects_min_skip\": %llu, "
                 "\"cert_rejects_drift\": %llu, \"cert_rejects_agreement\": %llu, "
                 "\"cert_mean_dwell_at_accept\": %.6g, "
                 "\"speedup_vs_packet\": %.3f, \"delivered\": %llu, "
                 "\"drops\": %llu, \"jain\": %.6f, ",
                 r.desc.num_flows, r.desc.scenario.c_str(), r.desc.lp, hw_threads,
                 r.desc.fluid ? "true" : "false", row.ok ? "true" : "false", r.wall_ms,
                 static_cast<unsigned long long>(r.events),
                 r.wall_ms > 0.0 ? events / (r.wall_ms / 1e3) : 0.0,
                 events / static_cast<double>(r.desc.num_flows),
                 (r.fluid_steady_sec + r.fluid_ff_sec) / r.desc.duration_sec, r.fluid_ff_sec,
                 static_cast<unsigned long long>(r.fluid_jumps),
                 static_cast<unsigned long long>(r.fluid_events_elided),
                 static_cast<unsigned long long>(r.cert_attempts),
                 static_cast<unsigned long long>(r.cert_rejects_min_skip),
                 static_cast<unsigned long long>(r.cert_rejects_drift),
                 static_cast<unsigned long long>(r.cert_rejects_agreement),
                 r.cert_mean_dwell_at_accept, r.desc.fluid ? row.speedup : 0.0,
                 static_cast<unsigned long long>(r.delivered),
                 static_cast<unsigned long long>(r.total_drops), r.jain);
    for (const sim::HotPathCounterField& c : sim::hotpath_counter_fields()) {
      std::fprintf(f, "\"%.*s\": %llu, ", static_cast<int>(c.key.size()), c.key.data(),
                   static_cast<unsigned long long>(ops.*c.member));
    }
    std::fprintf(f,
                 "\"cross_lp_fraction\": %.6g, \"speedup_vs_serial\": %.3f, "
                 "\"digest_match_serial_stepped\": %s, \"rss_kb\": %ld, "
                 "\"peak_rss_kb\": %ld, \"digest\": \"%s\"}%s\n",
                 events > 0.0 ? static_cast<double>(ops.cross_lp_events) / events : 0.0,
                 r.desc.fluid ? 0.0 : row.speedup, row.ok ? "true" : "false", row.rss_kb,
                 row.peak_kb, tel::digest_hex(r.digest).c_str(), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_scale.json (%zu rows)\n", rows.size());
  return any_failed ? 1 : 0;
}
