// Binary congestion marking (DECbit / ECN style) — the negative
// control for Corelite's weighted marker feedback.
//
// The paper's related work (§5) discusses DECbit [7]: routers set a
// congestion-indication bit in passing packets when the average queue
// exceeds a threshold.  This module implements that scheme on top of
// the same substrate so the two feedback designs are directly
// comparable:
//
//   EcnCoreRouter   — marks DATA packets (sets Packet::ecn) on every
//                     outgoing link whose EWMA queue length exceeds the
//                     threshold.  Stateless per flow, like Corelite.
//   EcnEgressAgent  — at the egress, echoes one zero-size Feedback
//                     packet to the flow's ingress edge per marked data
//                     packet (the receiver's "congestion experienced"
//                     echo).  The ingress is a regular
//                     CoreliteEdgeRouter counting feedback per epoch.
//
// The predictable failure: marked packets arrive in proportion to the
// flow's PACKET rate b_g, not its normalized rate b_g/w, so the LIMD
// decrease is multiplicative in b_g and the system converges to EQUAL
// rates — rate weights are ignored.  Corelite's contribution is exactly
// the normalization this scheme lacks (the ecnbit row of
// `bench/ablations selector`).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/link.h"
#include "net/network.h"
#include "qos/config.h"

namespace corelite::qos {

/// Marks data packets when the link's EWMA queue exceeds the threshold.
class EcnMarkPolicy final : public net::AdmissionPolicy {
 public:
  EcnMarkPolicy(const net::Link& link, double q_thresh_pkts, double ewma_gain)
      : link_{link}, q_thresh_{q_thresh_pkts}, gain_{ewma_gain} {}

  bool admit(net::Packet& p, sim::SimTime /*now*/) override {
    avg_ = (1.0 - gain_) * avg_ + gain_ * static_cast<double>(link_.queued_data_packets());
    if (avg_ > q_thresh_) {
      p.ecn = true;
      ++marked_;
    }
    return true;  // marking never drops
  }

  [[nodiscard]] double average_queue() const { return avg_; }
  [[nodiscard]] std::uint64_t marked() const { return marked_; }

 private:
  const net::Link& link_;
  double q_thresh_;
  double gain_;
  double avg_ = 0.0;
  std::uint64_t marked_ = 0;
};

/// Installs an EcnMarkPolicy on every outgoing link of a core node.
class EcnCoreRouter {
 public:
  EcnCoreRouter(net::Network& network, net::NodeId node, const CoreliteConfig& config);
  EcnCoreRouter(const EcnCoreRouter&) = delete;
  EcnCoreRouter& operator=(const EcnCoreRouter&) = delete;
  ~EcnCoreRouter();

  [[nodiscard]] std::uint64_t total_marked() const;

 private:
  net::Network& net_;
  net::NodeId node_;
  std::vector<net::Link*> links_;
  std::vector<std::unique_ptr<EcnMarkPolicy>> policies_;
};

/// Echo agent for an egress node: one Feedback per marked data packet,
/// addressed to the packet's ingress edge (Packet::src).  Call from the
/// egress node's local sink.
class EcnEgressAgent {
 public:
  explicit EcnEgressAgent(net::Network& network, net::NodeId node)
      : net_{network}, node_{node} {}

  /// Process a delivered data packet; echoes if it carries the mark.
  void on_data(const net::Packet& p);

  [[nodiscard]] std::uint64_t echoes_sent() const { return echoes_; }

 private:
  net::Network& net_;
  net::NodeId node_;
  std::uint64_t echoes_ = 0;
};

}  // namespace corelite::qos
