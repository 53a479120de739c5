// The hybrid fluid fast-forward controller.
//
// Runs a periodic convergence detector beside the packet-level engine:
// per-flow delivery-rate EWMAs must sit inside a relative band for a
// dwell window (sparse flows are covered by an aggregate test), and the
// measured rates must agree with the analytic weighted max-min
// allocation (allocator.h) — converged, and converged to the right
// fixed point.  Once both hold, the remainder of the steady phase is
// compressed: the experiment-time offset jumps to just short of the
// next workload boundary (TimeWarp heap top) while per-flow
// sent/delivered/dropped counters and the allotted-rate and cumulative
// series are synthesized from the flows' measurement-window mean
// rates with deterministic fractional-packet residues.  The window mean
// — counters integrated over several control-loop oscillation periods —
// is the packet engine's own steady behaviour; the analytic allocation
// is only the oracle certifying it converged to the RIGHT fixed point.  The engine clock never moves backward or
// skips, so queue contents, rate-estimator timestamps and packets in
// flight stay valid — steady state is time-translation invariant, which
// is exactly the property the detector certified.
#pragma once

#include <cstdint>
#include <vector>

#include "net/types.h"
#include "sim/fluid/allocator.h"
#include "sim/fluid/config.h"
#include "sim/fluid/probe.h"
#include "sim/fluid/warp.h"
#include "sim/simulator.h"
#include "stats/flow_tracker.h"

namespace corelite::sim::fluid {

class FluidController {
 public:
  FluidController(Simulator& sim, TimeWarp& warp, stats::FlowTracker& tracker, FluidConfig cfg,
                  SimTime experiment_end);
  ~FluidController() { tick_handle_.cancel(); }

  FluidController(const FluidController&) = delete;
  FluidController& operator=(const FluidController&) = delete;

  /// Directed-link capacities in packets/s; flow link sets index into
  /// this vector.  Call before start().
  void set_link_capacities(std::vector<double> caps_pps) { caps_ = std::move(caps_pps); }

  /// Register a flow with its weight, the capacity-vector indices of the
  /// links it crosses and its minimum-rate contract (pkt/s, 0 = none).
  /// Call before start().
  void add_flow(net::FlowId id, double weight, std::vector<std::uint32_t> links,
                double min_rate);

  /// Arm the periodic convergence check.  Call once, before the run.
  void start();

  /// Attach a certification flight recorder.  Pure observation — the
  /// controller's decisions are identical with or without one.
  void set_probe(FluidProbe* probe) { probe_ = probe; }

  [[nodiscard]] const FluidStats& stats() const { return stats_; }

 private:
  struct Tracked {
    net::FlowId id = 0;
    double weight = 1.0;
    // Counter snapshots from the previous check tick.
    std::uint64_t last_delivered = 0;
    std::uint64_t last_sent = 0;
    std::uint64_t last_dropped = 0;
    // Rate EWMAs in packets/s; negative means "no measurement yet".
    double ewma_delivered = -1.0;
    double ewma_sent = 0.0;
    double ewma_dropped = 0.0;
    // EWMA of squared tick-rate deviations — an empirical per-flow
    // noise-variance estimate.  CBR-fed deterministic droppers measure
    // tiny variance, probabilistic droppers large; the drift gate's
    // tolerance scales with it instead of assuming one noise model.
    double var_delivered = -1.0;
    // Counter snapshots from the start of the current in-band
    // measurement window; (last_* - win_*) / window gives the fluid
    // rates a jump synthesizes from.
    std::uint64_t win_delivered = 0;
    std::uint64_t win_sent = 0;
    std::uint64_t win_dropped = 0;
    // Mid-window snapshots for the drift test: the window's first- and
    // second-half mean rates must agree before extrapolating.
    std::uint64_t mid_delivered = 0;
    std::uint64_t mid_sent = 0;
    std::uint64_t mid_dropped = 0;
    // Sign of the last half-window disagreement (+1/-1, 0 = none).  A
    // ramp repeats the same sign across slid windows — keep waiting; a
    // slow oscillation flips sign — the full-window mean averages it
    // out, so it is safe to extrapolate.
    int drift_sign = 0;
    // Sticky within a steady phase: set on the first sign flip.  A slow
    // oscillator (period >> window) holds each sign for several slid
    // windows; without the certificate it would alternate
    // tolerated/failed forever and a large population would never pass
    // the AND over flows.  Cleared with drift_sign on window reset, so
    // a flow that later starts a genuine ramp is re-examined from
    // scratch after the next phase change.
    bool oscillatory = false;
    // Window-mean rates (packets/s), filled right before a jump.
    double mean_delivered = 0.0;
    double mean_sent = 0.0;
    double mean_dropped = 0.0;
    // Fractional packets carried across jumps so long phases synthesize
    // exactly rate*time packets in total, deterministically.
    double res_delivered = 0.0;
    double res_sent = 0.0;
    double res_dropped = 0.0;
  };

  void tick();
  /// Reset the measurement window to start at `t` with current counters.
  void reset_window(SimTime t);
  /// Per-flow drift test at integrated resolution: the window's first-
  /// and second-half mean rates must agree.  Tick-scale band tests
  /// cannot see slow per-flow redistribution under a flat aggregate
  /// (their quantization slack dwarfs it); half-window means can.
  /// Updates each flow's drift_sign; a disagreement whose sign flipped
  /// since the last one is classified as oscillation and tolerated.
  [[nodiscard]] bool halves_agree(SimTime t);
  /// Slide the window forward so its second half becomes the new first
  /// half — re-measuring after a drift failure without starting over.
  void slide_window();
  /// Fill each flow's window-mean rates, solve the water-filling
  /// allocation for the measured demands, and gate on the means
  /// agreeing with it (within cfg_.agreement_band).
  [[nodiscard]] bool solve_allocation(double window_sec);
  void jump(SimTime target, bool capped);
  void emit_cert(FluidCertEvent::Kind kind, SimTime t, double window_sec, double extra = 0.0);

  Simulator& sim_;
  TimeWarp& warp_;
  stats::FlowTracker& tracker_;
  FluidConfig cfg_;
  SimTime end_;

  std::vector<Tracked> flows_;
  std::vector<AllocFlow> alloc_flows_;  ///< parallel to flows_; demand set per query
  std::vector<double> alloc_;  ///< last solve_allocation() result (fluid rates, pkt/s)
  std::vector<double> caps_;
  std::vector<double> link_load_;  ///< scratch: measured per-link totals
  PeriodicHandle tick_handle_;
  SimTime last_tick_ = SimTime::zero();
  SimTime win_start_ = SimTime::zero();  ///< current measurement-window origin
  SimTime win_mid_ = SimTime::zero();    ///< mid-window snapshot time
  bool mid_set_ = false;
  std::uint64_t last_events_ = 0;
  double event_rate_ = -1.0;  ///< engine events/s EWMA, for the elision estimate
  int dwell_ = 0;
  int out_band_ = 0;  ///< consecutive out-of-band ticks; >=2 resets the window
  /// The last jump was cut short by the extrapolation cap, not a
  /// workload boundary: the engine re-materialized *inside* the same
  /// certified steady phase, so the next measurement is a re-anchor
  /// (half window) rather than a from-scratch detection.  Any
  /// out-of-band excursion or boundary firing clears it — those mean
  /// the phase certificate no longer stands.
  bool reanchor_ = false;
  std::uint64_t warp_fired_seen_ = 0;  ///< warp fired_count() at last window reset
  FluidProbe* probe_ = nullptr;
  FluidStats stats_;
};

}  // namespace corelite::sim::fluid
