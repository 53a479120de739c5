// Edge rate-adaptation controller (paper §2.2 step 3, §4, §4.4).
//
// The paper's evaluation uses a weighted LIMD scheme (linear increase /
// marker-proportional decrease) and notes that "simulations using
// different adaptation schemes at the edge router ... are part of
// ongoing work".  RateAdaptConfig::kind therefore selects the
// closed-loop policy:
//
//   Limd — the paper's scheme: +alpha pkt/s per unmarked epoch, -beta
//     pkt/s per marker.  Because markers arrive in proportion to the
//     normalized rate, the decrease is effectively multiplicative =>
//     converges to weighted max-min (Chiu & Jain).
//
//   Aimd — classic AIMD: +alpha per unmarked epoch, rate *=
//     (1 - md_factor)^m on m markers.  Also converges; decrease is
//     multiplicative by construction rather than via marker counts.
//
//   Mimd — multiplicative increase & decrease.  Does NOT converge to
//     fairness (Chiu & Jain); provided as the negative control for
//     `bench/ablations adaptation`.
//
// All policies share the slow-start behaviour of the paper's source
// agents: double once per second until the first congestion
// notification or until the rate strictly exceeds ss-thresh, then halve
// and enter the closed-loop phase.
//
// A controller is a per-flow value holding only per-flow state; every
// call takes the edge's one RateAdaptConfig.
#pragma once

#include "qos/config.h"
#include "sim/units.h"

namespace corelite::qos {

class RateController {
 public:
  explicit RateController(const RateAdaptConfig& cfg, double min_rate_contract_pps = 0.0);

  /// Restart from scratch (flow [re]admission): initial rate, slow start.
  void reset(const RateAdaptConfig& cfg, sim::SimTime now);

  /// Apply one adaptation epoch with `feedback_count` markers/losses.
  void on_epoch(const RateAdaptConfig& cfg, int feedback_count, sim::SimTime now);

  [[nodiscard]] double rate_pps() const { return rate_; }
  [[nodiscard]] bool in_slow_start() const { return slow_start_; }
  [[nodiscard]] double floor_pps() const { return floor_; }

 private:
  double floor_;
  double rate_;
  sim::SimTime last_double_ = sim::SimTime::zero();
  bool slow_start_ = true;
};

}  // namespace corelite::qos
