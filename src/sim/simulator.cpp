#include "sim/simulator.h"

namespace corelite::sim {

void Simulator::run_until(SimTime deadline) {
  stopped_ = false;
  // run_next_until peeks the queue front once per event and advances the
  // clock to the fire time just before the callback observes now().
  const auto set_clock = [this](SimTime t) { now_ = t; };
  while (!stopped_) {
    if (!queue_.run_next_until(deadline, set_clock).is_finite()) break;
    ++processed_;
  }
  if (!stopped_ && now_ < deadline && deadline < SimTime::infinite()) now_ = deadline;
}

}  // namespace corelite::sim
