// Corelite core-router behaviour (paper §2.2 step 2, §3).
//
// A core router keeps NO per-flow state.  Per outgoing link it runs:
//   - a CongestionEstimator watching the data queue length, and
//   - a MarkerSelector that turns passing markers into weighted-fair
//     feedback when the estimator reports incipient congestion.
//
// Selected markers are echoed to the edge router that generated them
// (the marker's source address), stamped with this router's id so the
// edge can take the max over core routers.  The router never inspects
// data packets, never drops, and its forwarding behaviour is untouched —
// it attaches to links purely as an observer.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/link.h"
#include "net/network.h"
#include "qos/config.h"
#include "qos/congestion_estimator.h"
#include "qos/marker_selector.h"
#include "stats/time_series.h"

namespace corelite::qos {

class CoreliteCoreRouter {
 public:
  /// Diagnostics for one monitored link.
  struct LinkDiagnostics {
    net::NodeId link_to = net::kInvalidNode;
    double last_q_avg = 0.0;
    std::uint64_t feedback_sent = 0;
    std::uint64_t congested_epochs = 0;
    stats::StepIntegral q_avg;  ///< q_avg per epoch: q_avg.average_to(T) is its mean over [0, T]
  };

  /// Attaches to every outgoing link of `node` that exists at
  /// construction time.  Call after the topology is fully built.
  CoreliteCoreRouter(net::Network& network, net::NodeId node, const CoreliteConfig& config);

  CoreliteCoreRouter(const CoreliteCoreRouter&) = delete;
  CoreliteCoreRouter& operator=(const CoreliteCoreRouter&) = delete;
  ~CoreliteCoreRouter();

  [[nodiscard]] net::NodeId node() const { return node_; }
  [[nodiscard]] std::uint64_t total_feedback_sent() const { return feedback_sent_; }
  [[nodiscard]] std::vector<LinkDiagnostics> diagnostics() const;

 private:
  struct LinkState;

  void send_feedback(const net::MarkerInfo& m);
  void on_epoch();

  net::Network& net_;
  net::NodeId node_;
  CoreliteConfig cfg_;
  std::vector<std::unique_ptr<LinkState>> links_;
  sim::PeriodicHandle epoch_timer_;
  std::uint64_t feedback_sent_ = 0;
};

}  // namespace corelite::qos
