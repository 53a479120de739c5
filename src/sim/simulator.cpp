#include "sim/simulator.h"

#include <cassert>
#include <utility>

namespace corelite::sim {

void Simulator::run_until(SimTime deadline) {
  stopped_ = false;
  // Published so in-event batch drains (can_advance_inline) never fuse a
  // completion the deadline should have left pending.
  run_deadline_ = deadline;
  // run_next_until peeks the queue front once per event and advances the
  // clock to the fire time just before the callback observes now().
  const auto set_clock = [this](SimTime t) { now_ = t; };
  while (!stopped_) {
    if (!queue_.run_next_until(deadline, set_clock).is_finite()) break;
    ++processed_;
  }
  run_deadline_ = kNotRunning;
  if (!stopped_ && now_ < deadline && deadline < SimTime::infinite()) now_ = deadline;
}

void Simulator::run() {
  stopped_ = false;
  run_deadline_ = SimTime::infinite();
  const auto set_clock = [this](SimTime t) { now_ = t; };
  while (!stopped_) {
    if (!queue_.run_next_until(SimTime::infinite(), set_clock).is_finite()) break;
    ++processed_;
  }
  run_deadline_ = kNotRunning;
}

}  // namespace corelite::sim
