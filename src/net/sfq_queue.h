// Stochastic fair queueing: hashed round-robin bands (McKenney '90).
//
// Another classic point on the state/fairness spectrum, and the
// concrete realization of the paper's remark (§3.1) that "a core router
// may have multiple packet queues ... we only care about the aggregate
// queue size over all the queues corresponding to a link": flows hash
// into a fixed number of FIFO bands served round-robin, giving
// approximate per-flow fairness with O(bands) state (collisions share a
// band's rate).  `data_packet_count()` reports the AGGREGATE across
// bands, so Corelite's congestion detector composes with this
// discipline unchanged — which tests/net_sfq_test.cpp exercises.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "net/queue.h"
#include "sim/block_fifo.h"

namespace corelite::net {

class SfqQueue final : public PacketQueue {
 public:
  /// `bands`: number of hash buckets.  `per_band_capacity`: packets each
  /// band may hold (the aggregate capacity is bands * per_band).
  SfqQueue(std::size_t bands, std::size_t per_band_capacity, std::uint64_t hash_seed = 0x9e37)
      : bands_(bands), per_band_{per_band_capacity}, seed_{hash_seed}, queues_(bands) {}

  [[nodiscard]] bool enqueue(Packet&& p, sim::SimTime now) override;
  [[nodiscard]] std::optional<Packet> dequeue(sim::SimTime now) override;
  [[nodiscard]] bool empty() const override;

  [[nodiscard]] std::size_t band_of(FlowId flow) const {
    // Simple multiplicative hash; good enough dispersion for test-size
    // populations and fully deterministic.
    const std::uint64_t h = (static_cast<std::uint64_t>(flow) + seed_) * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(h >> 33) % bands_;
  }
  [[nodiscard]] std::size_t band_occupancy(std::size_t band) const {
    return queues_.at(band).size();
  }

 private:
  std::size_t bands_;
  std::size_t per_band_;
  std::uint64_t seed_;
  std::vector<std::deque<Packet>> queues_;
  sim::BlockFifo<Packet> control_;  // strict priority, zero-size headers
  std::size_t next_band_ = 0;   // round-robin pointer
};

}  // namespace corelite::net
