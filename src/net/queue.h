// Output-queue disciplines for links.
//
// DropTailQueue is the discipline used by every experiment in the paper
// (ns-2 default).  RedQueue implements classic RED (Floyd & Jacobson 93),
// which the paper discusses as related work; it serves as an extra
// baseline in the ablation table (bench/ablations).
//
// Queue capacity counts DATA packets only.  Control packets (markers,
// feedback, loss notices) are zero-size piggybacked headers: they are
// always accepted and never counted against capacity (see packet.h).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "net/packet.h"
#include "net/ring_buffer.h"
#include "sim/random.h"
#include "sim/units.h"

namespace corelite::net {

class PacketQueue {
 public:
  virtual ~PacketQueue() = default;

  /// Attempt to enqueue.  Returns false if the packet was dropped.
  /// Contract: on rejection the packet is left INTACT (implementations
  /// decide before moving from `p`), so the caller can notify drop
  /// observers from `p` without keeping a defensive copy.
  [[nodiscard]] virtual bool enqueue(Packet&& p, sim::SimTime now) = 0;

  /// Invoked for packets the queue drops *after* having accepted them
  /// (e.g. WFQ evicting the longest backlog to admit a new arrival).
  /// The owning Link registers here so observers and statistics see
  /// internal drops exactly like rejected arrivals.
  using InternalDropFn = std::function<void(const Packet&)>;
  void set_internal_drop_callback(InternalDropFn fn) { internal_drop_ = std::move(fn); }

  /// Remove and return the head-of-line packet, or nullopt if empty.
  [[nodiscard]] virtual std::optional<Packet> dequeue(sim::SimTime now) = 0;

  /// Move the head-of-line packet directly into `out`; returns false if
  /// empty.  Semantically identical to dequeue() — the hot FIFO
  /// disciplines override it so the per-hop path moves each packet once
  /// (queue slot -> transmission slot) instead of through an optional.
  [[nodiscard]] virtual bool dequeue_into(Packet& out, sim::SimTime now) {
    auto p = dequeue(now);
    if (!p) return false;
    out = std::move(*p);
    return true;
  }

  /// Number of data packets currently queued (capacity metric and the
  /// quantity Corelite's congestion estimator averages).  Non-virtual:
  /// every discipline maintains the shared counter below, and the link
  /// reads it after every data enqueue/dequeue — a virtual call here
  /// costs an indirect branch on the per-packet path for a value that
  /// is a plain load in all implementations.
  [[nodiscard]] std::size_t data_packet_count() const { return data_count_; }

  [[nodiscard]] virtual bool empty() const = 0;

  /// Number of flow-keyed state entries the discipline currently holds —
  /// the quantity the paper's scalability argument is about.  Stateless
  /// disciplines (drop-tail, RED, CHOKe) hold none; WFQ and FRED report
  /// their per-flow tables.
  [[nodiscard]] virtual std::size_t flow_state_entries() const { return 0; }

 protected:
  void notify_internal_drop(const Packet& p) {
    if (internal_drop_) internal_drop_(p);
  }

  /// Data packets currently queued; disciplines keep it current on
  /// every data enqueue/dequeue/internal drop.
  std::size_t data_count_ = 0;

 private:
  InternalDropFn internal_drop_;
};

/// FIFO with a fixed data-packet capacity.
class DropTailQueue final : public PacketQueue {
 public:
  explicit DropTailQueue(std::size_t capacity_data_packets)
      : capacity_{capacity_data_packets} {}

  [[nodiscard]] bool enqueue(Packet&& p, sim::SimTime now) override;
  [[nodiscard]] std::optional<Packet> dequeue(sim::SimTime now) override;
  [[nodiscard]] bool dequeue_into(Packet& out, sim::SimTime now) override;
  [[nodiscard]] bool empty() const override { return q_.empty(); }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_;
  RingBuffer<Packet> q_;
};

/// Classic RED (random early detection) gateway.
///
/// Exponentially weighted moving average of the data queue length with
/// idle-time compensation; drop probability ramps linearly between
/// min_thresh and max_thresh, with the standard 1/(1 - count*p) spreading.
class RedQueue final : public PacketQueue {
 public:
  struct Config {
    std::size_t capacity_data_packets = 40;
    double min_thresh = 5.0;
    double max_thresh = 15.0;
    double max_drop_prob = 0.1;
    double ewma_weight = 0.002;
    /// Estimated packet service time, used to age the average across idle
    /// periods (Floyd & Jacobson §4, "m" packets could have been sent).
    sim::TimeDelta typical_service_time = sim::TimeDelta::millis(2);
  };

  RedQueue(Config cfg, sim::Rng& rng) : cfg_{cfg}, rng_{&rng} {}

  [[nodiscard]] bool enqueue(Packet&& p, sim::SimTime now) override;
  [[nodiscard]] std::optional<Packet> dequeue(sim::SimTime now) override;
  [[nodiscard]] bool dequeue_into(Packet& out, sim::SimTime now) override;
  [[nodiscard]] bool empty() const override { return q_.empty(); }

  [[nodiscard]] double average_queue() const { return avg_; }

 private:
  void age_average(sim::SimTime now);

  Config cfg_;
  sim::Rng* rng_;
  RingBuffer<Packet> q_;
  double avg_ = 0.0;
  std::int64_t count_since_drop_ = -1;
  sim::SimTime idle_since_ = sim::SimTime::zero();
  bool idle_ = true;
};

}  // namespace corelite::net
