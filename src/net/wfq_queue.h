// Weighted fair queueing (start-time fair queueing variant; Goyal,
// Vin & Cheng) — the state-INTENSIVE reference point.
//
// The paper's motivation (§1) is that Intserv-style per-flow weighted
// fairness "requires a substantial amount of per-flow state ... in the
// core".  This queue is that reference: it keeps a FIFO per active
// flow, tags packets with virtual start/finish times computed from the
// flow's weight, and serves in increasing start-tag order.  Two flows
// backlogged on the same link receive service in the exact ratio of
// their weights — the ideal Corelite approximates with no core state.
//
// Implementation notes:
//   - SFQ start-tag service (rather than textbook WFQ finish-time) is
//     used because it needs no reference fluid system and has the same
//     weighted-fairness guarantee up to one packet per flow.
//   - Virtual time v = start tag of the packet most recently dequeued.
//   - Per-flow state (queue + finish tag) exists only while the flow
//     is backlogged.
//   - Control packets bypass the scheduler through a strict-priority
//     queue (they are zero-size piggybacked headers).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "net/queue.h"
#include "sim/block_fifo.h"

namespace corelite::net {

class WfqQueue final : public PacketQueue {
 public:
  using WeightFn = std::function<double(FlowId)>;

  /// `weight_of` supplies each flow's weight (the per-flow state a real
  /// WFQ router would have to carry); flows default to weight 1 if the
  /// function returns a non-positive value.
  WfqQueue(std::size_t capacity_data_packets, WeightFn weight_of)
      : capacity_{capacity_data_packets}, weight_of_{std::move(weight_of)} {}

  [[nodiscard]] bool enqueue(Packet&& p, sim::SimTime now) override;
  [[nodiscard]] std::optional<Packet> dequeue(sim::SimTime now) override;
  [[nodiscard]] bool empty() const override { return data_count_ == 0 && control_.empty(); }

  [[nodiscard]] double virtual_time() const { return vtime_; }
  /// Flows with packets currently queued.  (Finish-tag state is
  /// retained even for idle flows — the stateful cost of WFQ.)
  [[nodiscard]] std::size_t backlogged_flows() const { return backlogged_.size(); }
  /// Flows the scheduler holds tag state for (>= backlogged_flows()).
  [[nodiscard]] std::size_t tracked_flows() const { return tracked_; }
  [[nodiscard]] std::size_t flow_state_entries() const override { return tracked_; }

 private:
  struct Tagged {
    Packet packet;
    double start_tag = 0.0;
    double finish_tag = 0.0;
  };
  struct FlowQueue {
    std::deque<Tagged> q;
    double last_finish = 0.0;
    /// Weight cached at first touch (flow weights are per-run constants
    /// in every scenario; querying the callback per scheduler scan was
    /// the map-era hot spot).  Already normalized: non-positive -> 1.
    double weight = 1.0;
    bool present = false;  ///< scheduler holds tag state for this id
  };

  /// Dense per-flow table entry, created on first touch.
  FlowQueue& ensure_entry(FlowId id);
  /// Maintain the sorted backlogged-id list (scans iterate it in
  /// ascending id order — the same order, FP-sum order and tie-breaks
  /// as the ordered map this replaces).
  void mark_backlogged(FlowId id);
  void unmark_backlogged(FlowId id);

  std::size_t capacity_;
  WeightFn weight_of_;
  double vtime_ = 0.0;
  std::vector<FlowQueue> flows_;   ///< dense: flow id -> queue state
  std::vector<FlowId> backlogged_; ///< sorted ids with non-empty queues
  std::size_t tracked_ = 0;
  sim::BlockFifo<Packet> control_;
};

}  // namespace corelite::net
