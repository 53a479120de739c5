// Experiment harness: run a paper scenario end to end and collect the
// series the figures plot.
//
// A ScenarioSpec fully describes one run: the mechanism under test
// (one row of the mechanism table below), the flow population (weights
// + activity windows, or a generated workload) and the protocol/topology
// parameters.  run_paper_scenario() builds the network — the Figure-2
// chain or a generated topology, both as one GeneratedTopology
// description — wires up the mechanism, runs the simulation and returns
// per-flow rate and cumulative-service time series plus global
// counters.  Factory functions produce the exact specs behind each of
// the paper's figures.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include <memory>

#include "csfq/config.h"
#include "net/flow.h"
#include "net/network.h"
#include "qos/config.h"
#include "scenario/flow_gen.h"
#include "scenario/paper_topology.h"
#include "sim/fluid/config.h"
#include "sim/fluid/probe.h"
#include "sim/parallel/lp_probe.h"
#include "sim/units.h"
#include "stats/flow_tracker.h"
#include "telemetry/fairness_audit.h"

namespace corelite::scenario {

enum class Mechanism {
  Corelite,  ///< stateless selector (the paper's default)
  Csfq,      ///< weighted CSFQ baseline
  DropTail,  ///< FIFO + loss notification, no fairness mechanism
  Red,       ///< RED queues + loss notification (related-work baseline)
  Fred,      ///< FRED queues + loss notification (related-work baseline)
  Wfq,       ///< per-flow WFQ cores — the stateful Intserv-style reference
  EcnBit,    ///< DECbit/ECN binary marking — the unweighted-feedback control
  Choke,     ///< CHOKe stateless AQM + loss notification
  Sfq,       ///< stochastic fair queueing (hashed bands) + loss notification
};

/// Queue discipline on router-router links.
enum class CoreQueueKind {
  DropTail,  ///< paper default
  Red,       ///< related-work baseline (Floyd & Jacobson)
  Fred,      ///< related-work baseline (Lin & Morris)
  Wfq,       ///< Intserv-style stateful reference (weighted fair queueing)
  Choke,     ///< CHOKe stateless AQM (Pan, Prabhakar & Psounis)
  Sfq,       ///< stochastic fair queueing: hashed round-robin bands
};

/// Edge router at each source attach node.
enum class EdgeKind {
  Corelite,  ///< qos::CoreliteEdgeRouter: marker-driven LIMD shaping
  Csfq,      ///< csfq::CsfqEdgeRouter: labels packets, reacts to loss notices
};

/// Core machinery on every router.
enum class CoreKind {
  Corelite,       ///< qos::CoreliteCoreRouter: echoes selected markers
  Csfq,           ///< csfq::CsfqCoreRouter: probabilistic label-based drops
  Ecn,            ///< qos::EcnCoreRouter: sets the congestion bit
  LossNotifying,  ///< csfq::LossNotifyingCoreRouter: reports every drop
};

/// One mechanism's wiring: everything the runner, the names and the CLI
/// know about it.  Adding a mechanism is one row here (plus a queue
/// factory case if it brings a new discipline).
struct MechanismRow {
  Mechanism mechanism;
  const char* name;
  CoreQueueKind queue;
  EdgeKind edge;
  CoreKind core;
  bool ecn_egress;  ///< egress echoes marked packets (qos::EcnEgressAgent)
};

inline constexpr MechanismRow kMechanisms[] = {
    {Mechanism::Corelite, "corelite", CoreQueueKind::DropTail, EdgeKind::Corelite,
     CoreKind::Corelite, false},
    {Mechanism::Csfq, "csfq", CoreQueueKind::DropTail, EdgeKind::Csfq, CoreKind::Csfq, false},
    {Mechanism::DropTail, "droptail", CoreQueueKind::DropTail, EdgeKind::Csfq,
     CoreKind::LossNotifying, false},
    {Mechanism::Red, "red", CoreQueueKind::Red, EdgeKind::Csfq, CoreKind::LossNotifying, false},
    {Mechanism::Fred, "fred", CoreQueueKind::Fred, EdgeKind::Csfq, CoreKind::LossNotifying,
     false},
    {Mechanism::Wfq, "wfq", CoreQueueKind::Wfq, EdgeKind::Csfq, CoreKind::LossNotifying, false},
    {Mechanism::EcnBit, "ecnbit", CoreQueueKind::DropTail, EdgeKind::Corelite, CoreKind::Ecn,
     true},
    {Mechanism::Choke, "choke", CoreQueueKind::Choke, EdgeKind::Csfq, CoreKind::LossNotifying,
     false},
    {Mechanism::Sfq, "sfq", CoreQueueKind::Sfq, EdgeKind::Csfq, CoreKind::LossNotifying, false},
};

/// The table row of m.
[[nodiscard]] const MechanismRow& mechanism_row(Mechanism m);

[[nodiscard]] std::string mechanism_name(Mechanism m);

/// Inverse of mechanism_name: nullopt for an unknown name.
[[nodiscard]] std::optional<Mechanism> mechanism_from_name(const std::string& name);

/// Every mechanism name in table order, joined by ", ".
[[nodiscard]] std::string mechanism_names();

struct ScenarioSpec {
  Mechanism mechanism = Mechanism::Corelite;
  std::size_t num_flows = 20;
  /// weights[i] is the rate weight of 1-based flow i+1; must have
  /// num_flows entries.
  std::vector<double> weights;
  /// activity[i] are the activity windows of flow i+1; empty vector
  /// means always-on.
  std::vector<std::vector<net::ActiveInterval>> activity;
  /// Optional per-flow minimum rate contracts (pkt/s) by 1-based flow
  /// id, generated populations included; empty = none.
  std::vector<double> min_rates;
  /// Optional unresponsive-flood injection: flood_pps[i] > 0 makes
  /// 1-based flow i+1 ignore the adaptation protocol and blast at that
  /// fixed rate (see net::FlowSpec::flood_pps).  Empty = no floods.
  std::vector<double> flood_pps;

  sim::SimTime duration = sim::SimTime::seconds(80);
  std::uint64_t seed = 1;
  sim::TimeDelta cumulative_sample_period = sim::TimeDelta::seconds(1);

  /// Logical processes for the conservative parallel engine (1 =
  /// legacy serial, bit-identical to pre-parallel builds).  Requests
  /// beyond what the topology supports are clamped by the partitioner
  /// (and logged).  Digests are a pure function of (spec, effective lp
  /// count) — NOT of lp_threads, which only changes wall time.
  std::size_t lp = 1;
  /// OS threads driving the LPs: 0 = auto (ThreadBudget-clamped to the
  /// hardware), otherwise honored exactly (capped at the LP count).
  std::size_t lp_threads = 0;

  /// Failure injection: probability that any control packet (marker,
  /// feedback, loss notice, ACK) is lost on each link it crosses.
  double control_loss_rate = 0.0;

  /// Hybrid fluid fast-forward (serial runs only; lp > 1 warns and
  /// falls back to pure packet mode).  Disabled (the default) is
  /// bit-identical to pure packet mode; enabled trades bit-identity for
  /// wall clock, with per-flow mean rates held within the cross-check
  /// tolerance (tests/fluid_crosscheck_test.cpp).
  sim::fluid::FluidConfig fluid{};

  /// Fairness audit (opt-in, serial-only; lp > 1 warns and skips, like
  /// the instrument hook).  The audit sampler adds simulation events,
  /// so audit-on digests differ from audit-off — deterministically and
  /// thread/jobs-invariantly; plain --telemetry must leave this off to
  /// keep its bit-identity contract.
  telemetry::FairnessAuditConfig audit{};

  /// Observation probes (non-owning; must outlive the run).  lp_probe
  /// receives per-window LP runtime measurements when lp > 1;
  /// fluid_probe receives every fluid certification decision when the
  /// fluid engine is on.  Both are pure observation — digests are
  /// identical with or without them.
  sim::par::LpProbe* lp_probe = nullptr;
  sim::fluid::FluidProbe* fluid_probe = nullptr;

  qos::CoreliteConfig corelite{};
  csfq::CsfqConfig csfq{};
  PaperTopologyConfig topology{};

  /// Generated workload (scaling axis) or scenario script: when set, the
  /// run uses this topology + flow population instead of the paper's
  /// Figure-2 network; `weights`/`activity` above are ignored (the
  /// population carries its own), and `topology` only configures the
  /// queue disciplines.  A generated population is regenerated at run
  /// time from this spec's `seed`, so sweeps stay a pure function of the
  /// descriptor; a script's is its fixed flow list.  num_flows must
  /// equal generated->flows.num_flows.
  std::optional<GeneratedWorkload> generated;

  /// Optional observability hook, invoked once the network and mechanism
  /// are fully wired but before the simulation runs.  The only way to
  /// reach the spec-built network (it lives and dies inside
  /// run_paper_scenario) — telemetry collectors attach link observers
  /// here.  The second argument is the topology's designated bottleneck
  /// links (the paper chain's three core links).  Must be passive: attaching
  /// observers never touches the RNG or event order, so results stay
  /// bit-identical with or without it.
  using InstrumentFn = std::function<void(net::Network&, const std::vector<net::Link*>&)>;
  InstrumentFn instrument;
};

struct ScenarioResult {
  stats::FlowTracker tracker;
  std::uint64_t events_processed = 0;
  std::uint64_t total_data_drops = 0;       ///< across every link
  std::uint64_t congested_link_drops = 0;   ///< on the bottleneck links only
  std::uint64_t feedback_messages = 0;      ///< markers echoed / loss notices
  std::uint64_t markers_injected = 0;       ///< Corelite only
  std::uint64_t unrouteable = 0;            ///< should always be 0
  /// Peak per-flow state held by any single core node at the end of the
  /// run: max over core routers of the sum of flow_state_entries() over
  /// their outgoing queues.  0 for core-stateless mechanisms (Corelite,
  /// CSFQ, drop-tail, RED, CHOKe), O(active flows) for WFQ/FRED.
  std::size_t core_flow_state = 0;
  /// Mean q_avg observed per bottleneck link (Corelite cores only).
  std::vector<double> mean_q_avg;
  /// Timestamps (s) of every data-packet drop on the bottleneck links,
  /// in order — localizes loss to startup transients vs steady state.
  std::vector<double> drop_times;
  /// Instantaneous data-queue length of each bottleneck link, sampled
  /// every 100 ms (index matches GeneratedTopology::bottlenecks).
  std::vector<stats::TimeSeries> queue_series;
  /// Fluid fast-forward outcome (all-zero when spec.fluid is off).
  sim::fluid::FluidStats fluid_stats{};
  /// Fairness audit report (null unless spec.audit.enabled ran).
  std::unique_ptr<telemetry::FairnessAuditReport> audit_report;
};

/// Build, run and measure one scenario: the paper chain
/// (make_paper_chain) for paper specs, the generated topology and a
/// population generated from spec.seed when spec.generated is set.
/// Both are built the same way: core machinery on every router, one
/// edge router per source attach node, one sink per sink attach node.
[[nodiscard]] ScenarioResult run_paper_scenario(const ScenarioSpec& spec);

/// Weighted max-min fair rates (pkt/s) for the flows active at time t:
/// sim::fluid::water_fill over the links each flow's route crosses in
/// the network run_paper_scenario builds for `spec` (paper chain or
/// generated topology), with spec.min_rates as minimum-rate contracts.
/// Inactive flows are absent from the map.
[[nodiscard]] std::unordered_map<net::FlowId, double> ideal_rates_at(const ScenarioSpec& spec,
                                                                     sim::SimTime t);

/// A run's steady-state fairness against the oracle.
struct SteadyStateScore {
  /// avg_rate[i]: flow i+1's mean allotted rate (pkt/s) over the window;
  /// delivered / duration for counters-only runs, which keep no series.
  std::vector<double> avg_rate;
  /// ideal[i]: flow i+1's ideal_rates_at(probe) rate, 0 if inactive then.
  std::vector<double> ideal;
  /// Jain over avg_rate / ideal for the flows with ideal > 0.
  double jain = 1.0;
};

/// Scores `r` (a run of `spec`) over [w0, w1] s against the oracle at
/// `probe`.  Every steady-state Jain the tools and benches print is
/// this one.
[[nodiscard]] SteadyStateScore steady_state_score(const ScenarioSpec& spec,
                                                  const ScenarioResult& r, double w0, double w1,
                                                  sim::SimTime probe);

// --------------------------------------------------------------------------
// The paper's scenarios.

/// §4.1, Figures 3-4: 20 flows; flows 1, 9, 10, 11, 16 active only in
/// [250 s, 500 s); all others in [0 s, 750 s).  Weights: 3 for flows
/// 5 & 15, 1 for flows 1, 11 & 16, 2 otherwise.
[[nodiscard]] ScenarioSpec fig3_network_dynamics(Mechanism m);

/// §4.2, Figures 5-6: 10 flows with weight ceil(i/2), all starting at
/// t = 0; 80 s.
[[nodiscard]] ScenarioSpec fig5_simultaneous_start(Mechanism m);

/// §4.3, Figures 7-8: 20 flows starting 1 s apart in ascending order;
/// weights: 1 for flows 1, 11 & 16, 3 for flows 5, 10 & 15, 2 otherwise;
/// 80 s.
[[nodiscard]] ScenarioSpec fig7_staggered_start(Mechanism m);

/// §4.3, Figures 9-10: same population as fig7; each flow lives 60 s,
/// stops, and restarts 5 s later; 160 s.
[[nodiscard]] ScenarioSpec fig9_churn(Mechanism m);

/// Scenario by its CLI name — "fig3", "fig5", "fig7", "fig9", or a
/// generated-workload name "gen-<topo>-<flows>" where <topo> is
/// "pl<stages>" (parking lot), "ft<k>" (fat tree) or "isp<routers>"
/// (random ISP, fixed topology seed) and <flows> is the population
/// size, e.g. "gen-pl8-1000", "gen-ft4-1000", "gen-isp32-10000".
/// A "-steady" suffix (e.g. "gen-pl8-100000-steady") disables churn and
/// compresses arrivals into the first 5% of the run — the long
/// converged phase the fluid fast-forward engine targets.
/// nullopt for an unknown name.  Pure function of its arguments (no
/// shared state), so sweep workers can build specs concurrently.
[[nodiscard]] std::optional<ScenarioSpec> scenario_by_name(const std::string& name, Mechanism m);

/// Randomized generalization of the churn experiment: each flow cycles
/// through exponentially distributed on/off periods for the whole run.
/// Weights cycle {1, 2, 3}.  Deterministic in `seed` (which also seeds
/// the simulation itself).
[[nodiscard]] ScenarioSpec random_churn(Mechanism m, std::size_t num_flows,
                                        sim::TimeDelta mean_on, sim::TimeDelta mean_off,
                                        sim::SimTime duration, std::uint64_t seed);

}  // namespace corelite::scenario
