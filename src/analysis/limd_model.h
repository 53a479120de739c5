// Closed-form predictions for Corelite's control loop (the "analysis"
// companion the paper appeals to in §2.2: "This leads to weighted rate
// fairness, as we show through both simulations and analysis").
//
// The model treats the converged system as a fluid limit of the
// discrete dynamics:
//
//   equilibrium rates     — the weighted max-min allocation (via the
//                           water-filling oracle in sim/fluid/allocator.h).
//   slow-start exit       — doubling from r0 once per T_ss until the
//                           rate first strictly exceeds ss_thresh, then
//                           halving: exit rate and exit time follow in
//                           closed form.
//   convergence time      — slow-start time plus the linear climb from
//                           the exit rate to the weighted share at
//                           alpha per epoch (when the share is above
//                           the exit rate; otherwise the multiplicative
//                           decrease envelope dominates and the bound
//                           is a few epochs).
//   oscillation amplitude — at equilibrium a flow alternates between
//                           unmarked epochs (+alpha) and marked epochs
//                           (-beta each marker).  With the steady
//                           marker rate lambda = b/(K1 w) and feedback
//                           spread F_n across the aggregate, each flow
//                           sees O(1) markers per congested epoch, so
//                           the peak-to-trough swing is approximately
//                           alpha + beta markers_per_marked_epoch,
//                           bounded below by alpha + beta.
//
// These are engineering estimates, not theorems; their value is that
// tests/analysis_test.cpp holds the simulator to them, so a regression
// that changes the control-loop behaviour trips an explainable check.
#pragma once

#include <cstddef>
#include <vector>

#include "qos/config.h"
#include "sim/units.h"

namespace corelite::analysis {

struct SlowStartPrediction {
  double exit_rate_pps = 0.0;  ///< rate right after the ss-thresh halving
  double exit_time_sec = 0.0;  ///< time of the halving, from flow start
  int doublings = 0;           ///< number of doublings performed
};

/// Doubling from cfg.initial_rate_pps once per cfg.ss_double_interval
/// until the rate strictly exceeds cfg.ss_thresh_pps (assumes no
/// congestion feedback arrives earlier).
[[nodiscard]] SlowStartPrediction predict_slow_start(const qos::RateAdaptConfig& cfg);

/// Time (seconds from flow start) for a flow to first reach
/// `share_pps` given slow start followed by the linear climb of
/// +alpha per edge epoch.  If the share is below the slow-start exit
/// rate, returns the slow-start exit time (the controller halves into
/// the vicinity and the remaining gap closes within a few epochs).
[[nodiscard]] double predict_time_to_share(const qos::RateAdaptConfig& cfg,
                                           sim::TimeDelta edge_epoch, double share_pps);

/// Lower bound on the equilibrium peak-to-trough oscillation of b_g
/// around the weighted share: one unmarked epoch (+alpha) plus one
/// marked epoch (-beta * markers).  `expected_markers_per_marked_epoch`
/// defaults to 1 (the common case once converged).
[[nodiscard]] double predict_oscillation_pps(const qos::RateAdaptConfig& cfg,
                                             double expected_markers_per_marked_epoch = 1.0);

/// Steady-state marker rate of a flow (pkt/s of markers): b/(K1*w) —
/// i.e. the normalized rate divided by K1 (paper §2.2 step 1).
[[nodiscard]] double marker_rate_pps(double rate_pps, double weight, double k1);

/// Aggregate marker load on a link carrying the given normalized rates
/// (sum of b_i/w_i), divided by K1.
[[nodiscard]] double link_marker_rate_pps(const std::vector<double>& rates_pps,
                                          const std::vector<double>& weights, double k1);

/// Equilibrium average queue: inverts the F_n formula.  At equilibrium
/// the feedback demanded per epoch equals the feedback needed to cancel
/// the aggregate probing pressure: n_flows * alpha per edge epoch,
/// scaled to the core epoch.  Solves F_n(q) = required for q by
/// bisection; returns q_thresh if no feedback is required.
[[nodiscard]] double predict_equilibrium_qavg(const qos::CoreliteConfig& cfg, double mu_pps,
                                              std::size_t n_flows);

}  // namespace corelite::analysis
