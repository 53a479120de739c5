#include "qos/rate_controller.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "sim/hotpath.h"

namespace corelite::qos {

RateController::RateController(const RateAdaptConfig& cfg, double min_rate_contract_pps)
    : floor_{std::max(cfg.min_rate_pps, min_rate_contract_pps)},
      rate_{std::max(cfg.initial_rate_pps, floor_)} {
  assert(cfg.alpha_pps > 0.0 && cfg.beta_pps > 0.0);
}

void RateController::reset(const RateAdaptConfig& cfg, sim::SimTime now) {
  rate_ = std::max(cfg.initial_rate_pps, floor_);
  slow_start_ = true;
  last_double_ = now;
}

void RateController::on_epoch(const RateAdaptConfig& cfg, int feedback_count, sim::SimTime now) {
  assert(feedback_count >= 0);
  if (slow_start_) {
    if (feedback_count > 0) {
      // First congestion notification ends slow start (paper §4).
      rate_ = std::max(floor_, rate_ / 2.0);
      slow_start_ = false;
      return;
    }
    if (now - last_double_ >= cfg.ss_double_interval) {
      rate_ *= 2.0;
      last_double_ = now;
      if (rate_ > cfg.ss_thresh_pps) {
        // Strictly exceeded ss-thresh: halve and go closed-loop
        // (paper §4).  Doubling from below (1,2,...,32) exits at
        // 64 -> 32, matching "complete their slow-start phase at 7 s".
        rate_ = std::max(floor_, rate_ / 2.0);
        slow_start_ = false;
      }
    }
    return;
  }
  switch (cfg.kind) {
    case AdaptKind::Limd:
      if (feedback_count == 0) {
        rate_ += cfg.alpha_pps;  // probe for spare bandwidth
      } else {
        rate_ = std::max(floor_, rate_ - cfg.beta_pps * static_cast<double>(feedback_count));
      }
      return;
    case AdaptKind::Aimd:
    case AdaptKind::Mimd:
      if (feedback_count == 0) {
        rate_ = cfg.kind == AdaptKind::Aimd ? rate_ + cfg.alpha_pps : rate_ * cfg.mi_factor;
      } else {
        ++sim::hotpath_counters().pow_calls;
        rate_ = std::max(floor_, rate_ * std::pow(1.0 - cfg.md_factor,
                                                  static_cast<double>(feedback_count)));
      }
      return;
  }
}

}  // namespace corelite::qos
