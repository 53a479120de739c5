// Multi-threaded scenario-sweep harness.
//
// The paper's evaluation — and every bench row — is a *sweep*: many
// independent runs over seeds, weights, mechanisms and topologies.
// Each run is a self-contained single-threaded universe (Simulator +
// Network + PacketPool built from scratch inside the worker), so runs
// parallelize with no shared mutable state: a RunDescriptor is plain
// data, a worker turns it into a ScenarioSpec via the scenario
// factories and executes it, and results come back in descriptor
// order.
//
// Determinism contract: a run's outcome is a pure function of its
// descriptor.  Seeds derive from (base_seed, repeat) via splitmix64 —
// never from execution order — so `--jobs N` output is bit-identical
// to serial execution (every RunResult, digests included; only wall_ms
// varies).  Repeat k of every cell shares one seed, which pairs runs
// across mechanisms for variance-reduced comparisons.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "scenario/scenario.h"
#include "stats/aggregate.h"

namespace corelite::runner {

/// Plain description of one run — cheap to copy across threads.  The
/// override fields refine the named paper scenario; zero/empty means
/// "keep the scenario's default".
struct RunDescriptor {
  std::string scenario = "fig5";
  scenario::Mechanism mechanism = scenario::Mechanism::Corelite;
  std::uint64_t seed = 1;
  std::size_t repeat = 0;  ///< repeat index within its cell

  double duration_sec = 0.0;
  std::size_t num_flows = 0;  ///< overriding resets activity windows to always-on
  std::vector<double> weights;
  double control_loss_rate = 0.0;
  /// Parallel-engine overrides: lp > 0 sets ScenarioSpec::lp (LP count;
  /// 1 = force serial), lp_threads > 0 sets ScenarioSpec::lp_threads.
  /// 0 keeps the scenario defaults.  lp is part of the cell key (the
  /// digest depends on the effective LP count); lp_threads is not.
  std::size_t lp = 0;
  std::size_t lp_threads = 0;
  /// Hybrid fluid fast-forward (serial runs only).  Part of the cell
  /// key: fluid runs are not bit-identical to packet runs, so their
  /// digests must never aggregate into the same cell.
  bool fluid = false;
  /// Run the fluid convergence detector without ever jumping — the
  /// packet results are authoritative but fluid_steady_sec attributes
  /// how much of the run sat in fast-forwardable state.  Also part of
  /// the cell key (detector ticks change the event count).
  bool fluid_observe = false;
};

/// Aggregation key: runs differing only in seed/repeat share a cell.
[[nodiscard]] std::string cell_key(const RunDescriptor& d);

/// Deterministic per-run seed: splitmix64 over (base_seed, repeat).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t repeat);

/// A rectangular grid of runs: scenarios × mechanisms × repeats, with
/// shared overrides.  Expansion order (and thus run indices) is
/// scenario-major, then mechanism, then repeat.
struct SweepGrid {
  std::vector<std::string> scenarios{"fig5"};
  std::vector<scenario::Mechanism> mechanisms{scenario::Mechanism::Corelite};
  std::size_t repeats = 1;
  std::uint64_t base_seed = 1;

  double duration_sec = 0.0;
  std::size_t num_flows = 0;
  std::vector<double> weights;
  double control_loss_rate = 0.0;
  std::size_t lp = 0;          ///< see RunDescriptor::lp
  std::size_t lp_threads = 0;  ///< see RunDescriptor::lp_threads
  bool fluid = false;          ///< see RunDescriptor::fluid
};

[[nodiscard]] std::vector<RunDescriptor> expand_grid(const SweepGrid& grid);

/// Materialize the full spec for a descriptor.  Pure function — safe
/// from any thread.  nullopt if the scenario name is unknown or the
/// weights override does not match the flow count.
[[nodiscard]] std::optional<scenario::ScenarioSpec> build_spec(const RunDescriptor& d);

/// One run's outcome, reduced to what sweeps aggregate.
struct RunResult {
  RunDescriptor desc;
  std::size_t index = 0;  ///< position in the descriptor list
  bool ok = false;

  double jain = 0.0;                 ///< Jain over rate/ideal_rates_at, [T/2, T]
  std::vector<double> avg_rate_pps;  ///< per flow, averaged over [T/2, T]
  std::uint64_t events = 0;
  std::uint64_t total_drops = 0;
  std::uint64_t delivered = 0;
  std::uint64_t feedback = 0;
  std::size_t core_flow_state = 0;
  /// Fluid fast-forward outcome (zeros for packet-mode runs).  Excluded
  /// from the digest — the digest witnesses the simulated results, not
  /// how much wall clock the engine skipped to produce them.
  double fluid_ff_sec = 0.0;       ///< experiment seconds fast-forwarded
  double fluid_steady_sec = 0.0;   ///< seconds spent in detected steady state
  std::uint64_t fluid_jumps = 0;   ///< number of fast-forward jumps taken
  std::uint64_t fluid_events_elided = 0;  ///< estimated events skipped
  /// Certification-attempt accounting (always maintained by the fluid
  /// controller; zeros for packet-mode runs).  Excluded from the digest
  /// like the other fluid fields.
  std::uint64_t cert_attempts = 0;
  std::uint64_t cert_rejects_min_skip = 0;
  std::uint64_t cert_rejects_drift = 0;
  std::uint64_t cert_rejects_agreement = 0;
  double cert_mean_dwell_at_accept = 0.0;  ///< detector ticks, mean over jumps
  double wall_ms = 0.0;  ///< worker wall-clock; excluded from the digest
  /// Wall-clock offset of this run's start from SweepRunner::run()'s
  /// epoch, and the pool worker that ran it.  Telemetry only (Chrome
  /// trace wall spans, heartbeat) — excluded from the digest, and 0 /
  /// worker 0 for runs executed outside a sweep.
  double wall_start_ms = 0.0;
  std::size_t worker = 0;

  /// Fairness-audit report, present only for runs whose spec enabled
  /// the auditor (see SweepRunner::set_run_spec_hook).  Shared so
  /// RunResult stays copyable for aggregation.
  std::shared_ptr<telemetry::FairnessAuditReport> audit;

  /// FNV-1a over every per-flow counter and rate/cumulative sample of
  /// the run — the bit-identity witness for determinism checks.
  std::uint64_t digest = 0;
};

/// The digest stored in RunResult::digest, exposed so single-run tools
/// can print/manifest the same bit-identity witness sweeps use.
[[nodiscard]] std::uint64_t result_digest(const scenario::ScenarioResult& r);

/// Order-insensitive-input, order-sensitive-output reduction: FNV-1a
/// over the per-run digests in descriptor (index) order.  This is the
/// digest a whole sweep prints and manifests; identical for any --jobs.
[[nodiscard]] std::uint64_t combined_digest(const std::vector<RunResult>& results);

/// Arbitrary spec refinement applied after build_spec and before the
/// run — the audit path uses it to flip ScenarioSpec::audit and attach
/// probes on one chosen run.  Unlike `instrument`, a hook MAY change
/// the run's event stream (the audit sampler does), so hooked runs are
/// only --jobs-invariant if the hook itself is deterministic.
using SpecHook = std::function<void(scenario::ScenarioSpec&)>;

/// Build and execute one universe on the calling thread.  `instrument`,
/// if set, is forwarded to the spec (see ScenarioSpec::instrument) —
/// passive observation only, so the digest is unaffected.
[[nodiscard]] RunResult execute_run(
    const RunDescriptor& d, const scenario::ScenarioSpec::InstrumentFn& instrument = nullptr,
    const SpecHook& spec_hook = nullptr);

/// Record a result's deterministic metrics (jain, events, drops,
/// delivered, feedback, core_flow_state) into `agg` under the run's
/// cell key.  wall_ms is deliberately not recorded (see aggregate.h).
void record_metrics(stats::SweepAggregator& agg, const RunResult& r);

/// Inputs to the heartbeat's ETA model, split by run kind.  Fluid
/// fast-forward runs finish an order of magnitude faster than packet
/// runs of the same scenario, so a pooled mean wall time skews the ETA
/// badly on mixed grids; the estimator keeps per-kind averages.
struct EtaSnapshot {
  std::size_t workers = 1;
  /// Completed-run counts and wall-time sums (ms), per kind.
  std::size_t done_fluid = 0;
  std::size_t done_packet = 0;
  double wall_ms_fluid = 0.0;
  double wall_ms_packet = 0.0;
  /// Runs not yet started, per kind.
  std::size_t pending_fluid = 0;
  std::size_t pending_packet = 0;
  /// Runs currently executing: kind + elapsed wall so far.
  struct Busy {
    bool fluid = false;
    double elapsed_ms = 0.0;
  };
  std::vector<Busy> busy;
};

/// Estimated seconds until the sweep drains.  Per-kind completed-run
/// averages (falling back to the pooled average while a kind has no
/// completions yet); busy runs are credited the wall they have already
/// spent.  Negative when nothing has completed (ETA unknown).  Pure
/// function — unit-tested without threads.
[[nodiscard]] double estimate_eta_sec(const EtaSnapshot& snap);

class SweepRunner {
 public:
  /// `jobs` worker threads (floor 1; capped at the run count).
  explicit SweepRunner(std::size_t jobs) : jobs_{jobs} {}

  /// Called after each run completes, under an internal lock, with the
  /// finished count.  Completion order is scheduling-dependent; the
  /// returned vector's order is not.
  using Progress = std::function<void(const RunResult&, std::size_t done, std::size_t total)>;
  void set_progress(Progress cb) { progress_ = std::move(cb); }

  /// Instrument exactly one run (by descriptor index) with a telemetry
  /// hook — typically run 0, to render its virtual-time packet
  /// lifecycles into a trace without paying observer cost on the rest.
  void set_run_instrument(std::size_t index, scenario::ScenarioSpec::InstrumentFn fn) {
    instrument_index_ = index;
    instrument_ = std::move(fn);
  }

  /// Refine exactly one run's spec (by descriptor index) before it
  /// executes — how the audit path enables the fairness auditor on run
  /// 0 only, keeping the rest of the grid digest-clean.  See SpecHook.
  void set_run_spec_hook(std::size_t index, SpecHook fn) {
    spec_hook_index_ = index;
    spec_hook_ = std::move(fn);
  }

  /// Live progress heartbeat: every `interval_sec`, print one line to
  /// `os` with completed/total runs, per-worker current run + elapsed,
  /// and an ETA from the mean completed-run time.  Runs busy for more
  /// than 3x that mean are flagged as stragglers.  nullptr or a
  /// non-positive interval disables (the default).
  void set_heartbeat(std::ostream* os, double interval_sec) {
    heartbeat_os_ = os;
    heartbeat_interval_sec_ = interval_sec;
  }

  /// Execute every descriptor, `jobs` at a time.  results[i] always
  /// corresponds to runs[i].
  [[nodiscard]] std::vector<RunResult> run(const std::vector<RunDescriptor>& runs);

 private:
  std::size_t jobs_;
  Progress progress_;
  std::size_t instrument_index_ = static_cast<std::size_t>(-1);
  scenario::ScenarioSpec::InstrumentFn instrument_;
  std::size_t spec_hook_index_ = static_cast<std::size_t>(-1);
  SpecHook spec_hook_;
  std::ostream* heartbeat_os_ = nullptr;
  double heartbeat_interval_sec_ = 0.0;
};

}  // namespace corelite::runner
