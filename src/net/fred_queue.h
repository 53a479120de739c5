// FRED — Flow Random Early Drop (Lin & Morris, SIGCOMM'97).
//
// The Corelite paper discusses FRED as related work: it "extends RED to
// provide some degree of fair bandwidth allocation.  However, it
// maintains state for all flows that have at least one packet in the
// buffer" and "deviates from the ideal case in a number of scenarios".
// This implementation exists as a comparison baseline so those claims
// are checkable.
//
// Mechanism: RED's EWMA average gates drops globally, but each flow is
// additionally policed by its own buffered-packet count:
//   - every flow may always buffer min_q packets,
//   - no flow may buffer more than max_q = max(min_q, min_thresh),
//   - flows repeatedly exceeding max_q accumulate "strikes" and are then
//     held to the average per-flow occupancy avgcq,
//   - between the RED thresholds, flows above max(min_q, avgcq) suffer
//     RED's probabilistic drop.
// Per-flow state exists only while the flow has packets queued — the
// very property that distinguishes FRED from core-stateless schemes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/queue.h"
#include "sim/block_fifo.h"
#include "sim/random.h"

namespace corelite::net {

class FredQueue final : public PacketQueue {
 public:
  struct Config {
    std::size_t capacity_data_packets = 40;
    double min_thresh = 5.0;
    double max_thresh = 15.0;
    double max_drop_prob = 0.1;
    double ewma_weight = 0.002;
    std::size_t min_q = 2;  ///< packets every flow may always buffer
    sim::TimeDelta typical_service_time = sim::TimeDelta::millis(2);
  };

  FredQueue(Config cfg, sim::Rng& rng) : cfg_{cfg}, rng_{&rng} {}

  [[nodiscard]] bool enqueue(Packet&& p, sim::SimTime now) override;
  [[nodiscard]] std::optional<Packet> dequeue(sim::SimTime now) override;
  [[nodiscard]] bool empty() const override { return q_.empty(); }

  [[nodiscard]] double average_queue() const { return avg_; }
  [[nodiscard]] std::size_t tracked_flows() const { return tracked_; }
  [[nodiscard]] std::size_t flow_state_entries() const override { return tracked_; }
  [[nodiscard]] std::size_t queued_for(FlowId f) const {
    return f < flows_.size() && flows_[f].present ? flows_[f].qlen : 0;
  }

 private:
  /// Dense per-flow slot.  FRED's defining property is that state exists
  /// only while a flow has buffered packets; `present` models that
  /// lifetime (a "erased" slot keeps its storage but counts as absent,
  /// and re-creation resets qlen/strikes exactly like a fresh map node).
  struct FlowEntry {
    std::size_t qlen = 0;
    int strikes = 0;
    bool present = false;
  };

  FlowEntry& ensure_entry(FlowId id);
  void erase_entry(FlowEntry& fe) {
    fe.present = false;
    --tracked_;
  }

  void age_average(sim::SimTime now);

  Config cfg_;
  sim::Rng* rng_;
  sim::BlockFifo<Packet> q_;
  std::vector<FlowEntry> flows_;  ///< dense: flow id -> entry
  std::size_t tracked_ = 0;       ///< slots with present == true
  double avg_ = 0.0;
  std::int64_t count_since_drop_ = -1;
  sim::SimTime idle_since_ = sim::SimTime::zero();
  bool idle_ = true;
};

}  // namespace corelite::net
