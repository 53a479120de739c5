// CHOKe — CHOose and Keep for responsive flows, CHOose and Kill for
// unresponsive flows (Pan, Prabhakar & Psounis, INFOCOM 2000).
//
// A contemporary of Corelite with the same goal — approximate fair
// bandwidth sharing with NO per-flow state — and a radically different
// mechanism: on arrival during congestion, compare the packet against a
// RANDOMLY CHOSEN queued packet; if they belong to the same flow, drop
// BOTH.  A flow occupying a fraction p of the buffer suffers matches at
// rate ~p, so heavy flows police themselves.  Included as a baseline so
// the marker-feedback approach can be compared against stateless AQM
// (`bench/ablations selector`).
//
// Implemented on a RED base (as in the paper): below min_thresh accept,
// between the thresholds run the CHOKe match then RED's probabilistic
// drop, above max_thresh run the match then drop.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "net/queue.h"
#include "sim/random.h"

namespace corelite::net {

class ChokeQueue final : public PacketQueue {
 public:
  struct Config {
    std::size_t capacity_data_packets = 40;
    double min_thresh = 5.0;
    double max_thresh = 15.0;
    double max_drop_prob = 0.1;
    double ewma_weight = 0.002;
    sim::TimeDelta typical_service_time = sim::TimeDelta::millis(2);
  };

  ChokeQueue(Config cfg, sim::Rng& rng) : cfg_{cfg}, rng_{&rng} {}

  [[nodiscard]] bool enqueue(Packet&& p, sim::SimTime now) override;
  [[nodiscard]] std::optional<Packet> dequeue(sim::SimTime now) override;
  [[nodiscard]] bool empty() const override { return q_.empty(); }

  [[nodiscard]] double average_queue() const { return avg_; }
  [[nodiscard]] std::uint64_t choke_matches() const { return matches_; }

 private:
  void age_average(sim::SimTime now);
  /// Draw a random queued DATA packet; if it shares the arrival's flow,
  /// drop it (notifying) and report a match.
  bool choke_match_and_kill(const Packet& arrival);

  Config cfg_;
  sim::Rng* rng_;
  std::deque<Packet> q_;
  double avg_ = 0.0;
  std::int64_t count_since_drop_ = -1;
  sim::SimTime idle_since_ = sim::SimTime::zero();
  bool idle_ = true;
  std::uint64_t matches_ = 0;
};

}  // namespace corelite::net
