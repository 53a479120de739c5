// The network container: nodes, links, routing, packet delivery.
//
// Build a topology with add_node()/connect(), call build_routes() once,
// then inject packets at nodes.  Routing is static shortest-path by
// propagation delay (deterministic tie-break on node id), which matches
// the fixed routes of the paper's ns-2 scripts.
//
// Parallel mode: a Network constructed over an LpRuntime spans several
// logical processes.  Every node is pinned to one LP at add_node()
// time; each LP owns a private Simulator, RNG stream, packet pool and
// packet-uid space, and a link whose endpoints live in different LPs
// becomes a cut link — its propagation hop turns into a cross-LP
// mailbox message (see Link::on_serialized and LpRuntime).  With a
// single-LP runtime (or the plain Simulator constructor) every query
// below degenerates to the legacy single-universe behavior, bit for
// bit.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/link.h"
#include "net/node.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "net/types.h"
#include "sim/parallel/lp_runtime.h"
#include "sim/simulator.h"

namespace corelite::net {

class Network {
 public:
  explicit Network(sim::Simulator& simulator) : sim_{simulator} {
    // Pending link events hold raw pool pointers; the simulator keeps
    // the pool alive until those callbacks are gone (see PooledPacket).
    sim_.retain(pools_.front());
  }

  /// Parallel mode: one private packet pool per LP (pools are
  /// single-threaded free lists), retained by that LP's simulator.
  /// A 1-LP runtime leaves the network in exact legacy shape.
  explicit Network(sim::par::LpRuntime& runtime)
      : sim_{runtime.lp_sim(0)},
        lp_rt_{runtime.lp_count() > 1 ? &runtime : nullptr} {
    sim_.retain(pools_.front());
    if (lp_rt_ != nullptr) {
      for (std::size_t i = 1; i < runtime.lp_count(); ++i) {
        pools_.push_back(std::make_shared<PacketPool>());
        runtime.lp_sim(i).retain(pools_.back());
      }
      lp_packet_uid_.assign(runtime.lp_count(), UidCounter{});
    }
  }

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Create a node; returns its dense id.  `lp` pins the node to a
  /// logical process (ignored — treated as 0 — without a multi-LP
  /// runtime).
  NodeId add_node(std::string name, std::uint32_t lp = 0);

  /// Create one unidirectional link a -> b with a drop-tail queue.
  Link& connect(NodeId a, NodeId b, sim::Rate rate, sim::TimeDelta delay,
                std::size_t queue_capacity_packets);

  /// Create one unidirectional link a -> b with a caller-supplied queue.
  Link& connect_with_queue(NodeId a, NodeId b, sim::Rate rate, sim::TimeDelta delay,
                           std::unique_ptr<PacketQueue> queue);

  /// Create both directions with identical parameters.
  std::pair<Link*, Link*> connect_duplex(NodeId a, NodeId b, sim::Rate rate, sim::TimeDelta delay,
                                         std::size_t queue_capacity_packets);

  [[nodiscard]] Node& node(NodeId id) { return *nodes_.at(id); }
  [[nodiscard]] const Node& node(NodeId id) const { return *nodes_.at(id); }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  [[nodiscard]] Link* find_link(NodeId from, NodeId to);
  [[nodiscard]] const std::vector<std::unique_ptr<Link>>& links() const { return links_; }

  /// Populate every node's FIB via all-pairs shortest paths
  /// (Dijkstra per source; edge weight = propagation delay).
  void build_routes();

  /// Hand a packet that finished traversing a link to its downstream node.
  void deliver(NodeId to, Packet&& p);

  /// Inject a freshly created packet at `at` (used by edge routers).
  void inject(NodeId at, Packet&& p);

  /// The hop sequence a packet from `from` to `to` follows, inclusive.
  /// Empty if unreachable.  Requires build_routes() to have run.
  [[nodiscard]] std::vector<NodeId> path(NodeId from, NodeId to) const;

  /// Legacy uid source — the single global counter the golden digests
  /// pin.  Only valid without a multi-LP runtime.
  [[nodiscard]] std::uint64_t next_packet_uid() { return ++packet_uid_; }

  /// Uid for a packet born at node `at`.  Parallel mode partitions the
  /// uid space by LP (top 16 bits) so concurrent allocations never
  /// collide or race; legacy mode is the global counter above.
  [[nodiscard]] std::uint64_t next_packet_uid(NodeId at) {
    if (lp_rt_ == nullptr) return ++packet_uid_;
    const std::uint32_t lp = lp_of_node_[at];
    return (static_cast<std::uint64_t>(lp) << 48) | ++lp_packet_uid_[lp].next;
  }

  [[nodiscard]] std::uint64_t unrouteable_count() const {
    return unrouteable_.load(std::memory_order_relaxed);
  }

  /// LP 0's simulator — the only one in legacy mode.  Setup-time code
  /// and single-universe tests use this; per-packet paths must use
  /// local_sim() so each component runs on its own LP clock.
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  /// The simulator owning node `id` (== simulator() without a runtime).
  [[nodiscard]] sim::Simulator& local_sim(NodeId id) {
    return lp_rt_ == nullptr ? sim_ : lp_rt_->lp_sim(lp_of_node_[id]);
  }
  /// The RNG stream of node `id`'s LP.
  [[nodiscard]] sim::Rng& local_rng(NodeId id) { return local_sim(id).rng(); }

  [[nodiscard]] std::uint32_t lp_of(NodeId id) const {
    return lp_rt_ == nullptr ? 0 : lp_of_node_[id];
  }
  [[nodiscard]] sim::par::LpRuntime* lp_runtime() { return lp_rt_; }

  /// Shared recycler for packets in flight on links (serialization and
  /// propagation events).  One pool per LP: a slot freed by any link of
  /// an LP is immediately reusable by every other link of that LP.
  [[nodiscard]] PacketPool& packet_pool() { return *pools_.front(); }
  [[nodiscard]] PacketPool& packet_pool(NodeId id) {
    return lp_rt_ == nullptr ? *pools_.front() : *pools_[lp_of_node_[id]];
  }

  /// Cross-LP propagation hop: enqueue delivery of `p` to node `to` at
  /// absolute time `at` into the (src_lp -> dst LP of `to`) mailbox.
  /// Called by links whose endpoints live in different LPs.
  void post_cross_lp(std::uint32_t src_lp, sim::SimTime at, NodeId to, const Packet& p);

 private:
  sim::Simulator& sim_;
  sim::par::LpRuntime* lp_rt_ = nullptr;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::shared_ptr<PacketPool>> pools_{std::make_shared<PacketPool>()};
  std::vector<std::uint32_t> lp_of_node_;
  std::uint64_t packet_uid_ = 0;
  /// One LP's packet uid counter, alone on its cache line: each LP's
  /// thread bumps its own on every packet birth.
  struct alignas(64) UidCounter {
    std::uint64_t next = 0;
  };
  std::vector<UidCounter> lp_packet_uid_;
  // Any LP may fail to route concurrently; diagnostics only (always 0
  // in healthy runs), so relaxed is fine.
  std::atomic<std::uint64_t> unrouteable_{0};
};

}  // namespace corelite::net
