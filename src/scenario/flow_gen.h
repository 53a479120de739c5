// Deterministic flow-population generation for generated topologies.
//
// Produces the 1k/10k/100k-flow populations of the scaling axis: each
// flow gets endpoints drawn from the topology's source/sink attach
// routers, a weight from a repeating cycle, a Poisson arrival time, a
// bounded-Pareto on-duration (heavy-tailed "flow sizes" expressed in
// time at the flow's nominal rate) and, in churn mode, an exponential
// off-gap before it restarts — up to max_windows activity windows, all
// satisfying net::valid_activity_windows.
//
// generate_flows is a pure function of (topology, config, duration,
// seed): identical arguments yield byte-identical populations on every
// platform and thread, which is what lets sweep workers regenerate the
// workload independently and still produce bit-identical run digests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/flow.h"
#include "scenario/topology_gen.h"

namespace corelite::scenario {

struct FlowGenConfig {
  std::size_t num_flows = 1000;
  /// weights cycle over this list by flow index (never empty).
  std::vector<double> weight_cycle{1.0, 2.0, 3.0};

  /// Poisson arrival process: successive flow start times are separated
  /// by exponential gaps with this mean.
  double mean_arrival_gap_sec = 0.02;

  /// Arrivals wrap into the first arrival_span_frac of the run.  The
  /// default matches the historical hard-coded 0.8 (bit-identical
  /// populations); steady-state workloads ("-steady" scenario names)
  /// compress it so the run is one long converged phase after a short
  /// ramp — the regime the fluid fast-forward engine exploits.
  double arrival_span_frac = 0.8;

  /// Bounded-Pareto on-duration (seconds): heavy-tailed, truncated to
  /// [on_min_sec, on_max_sec].
  double pareto_alpha = 1.3;
  double on_min_sec = 5.0;
  double on_max_sec = 200.0;

  /// Churn: after each on-period the flow pauses for an exponential gap
  /// with this mean, then restarts — until duration or max_windows.
  bool churn = true;
  double mean_off_sec = 5.0;
  std::size_t max_windows = 4;

  /// Record per-epoch rate / cumulative series in the FlowTracker.
  /// Disable for very large populations (the 100k-flow bench rows):
  /// counters, weights and the run digest remain exact.
  bool record_series = true;
};

/// One flow of a topology: its routers, and the attach nodes (indices
/// into the topology's sources/sinks) the runner connects it through.
struct GenFlow {
  net::FlowId id = 0;  ///< 1-based, dense
  std::uint32_t src_router = 0;
  std::uint32_t dst_router = 0;
  std::uint32_t src_attach = 0;  ///< topology.sources[src_attach] == src_router
  std::uint32_t dst_attach = 0;  ///< topology.sinks[dst_attach] == dst_router
  double weight = 1.0;
  std::vector<net::ActiveInterval> windows;  ///< valid_activity_windows holds
};

/// Deterministically generate the population.  src != dst for every
/// flow; every window list is non-empty, time-ordered and disjoint.
[[nodiscard]] std::vector<GenFlow> generate_flows(const GeneratedTopology& topo,
                                                  const FlowGenConfig& cfg,
                                                  double duration_sec, std::uint64_t seed);

/// FNV-1a over the full population — determinism witness for goldens.
[[nodiscard]] std::uint64_t flows_digest(const std::vector<GenFlow>& flows);

/// A workload on a topology description, carried inside ScenarioSpec
/// (see scenario.h): a generator family instance whose flow population
/// is regenerated at run time from the run's seed, or a scenario
/// script's graph with its fixed flow list.
struct GeneratedWorkload {
  GeneratedTopology topology;
  FlowGenConfig flows;
  /// The population as given (ids 1..N in order); when non-empty the run
  /// uses it instead of generating one, and `flows` only contributes
  /// num_flows (== N) and record_series.
  std::vector<GenFlow> fixed_flows;
};

}  // namespace corelite::scenario
