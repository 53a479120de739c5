#include "qos/core_router.h"

#include <utility>

#include "sim/hotpath.h"

namespace corelite::qos {

struct CoreliteCoreRouter::LinkState final : net::LinkObserver {
  CoreliteCoreRouter* owner = nullptr;
  net::Link* link = nullptr;
  std::unique_ptr<CongestionDetector> detector;
  std::unique_ptr<MarkerSelector> selector;
  /// Built once: constructing a std::function per marker put ~92k
  /// manager-op pairs on the per-packet path of a 60 s 80-flow run.
  MarkerSelector::FeedbackFn feedback_fn;
  stats::StepIntegral q_avg;
  std::uint64_t congested_epochs = 0;

  LinkState(CoreliteCoreRouter* o, net::Link* l, const CoreliteConfig& cfg, sim::Rng& rng)
      : owner{o},
        link{l},
        detector{make_congestion_detector(cfg, l->rate().pps(cfg.packet_size))},
        feedback_fn{[o](const net::MarkerInfo& m) { o->send_feedback(m); }} {
    if (cfg.selector == SelectorKind::MarkerCache) {
      selector = std::make_unique<MarkerCacheSelector>(cfg.marker_cache_size, rng);
    } else {
      selector = std::make_unique<StatelessSelector>(cfg.rav_gain, cfg.wav_gain, rng,
                                                     cfg.eligibility_factor);
    }
  }

  void on_enqueue(const net::Packet& p, sim::SimTime /*now*/) override {
    if (p.kind != net::PacketKind::Marker) return;
    ++sim::hotpath_counters().markers_seen;
    // The router copies the marker without any per-flow processing; the
    // selector decides (statistically) whether it becomes feedback.
    selector->on_marker(p.marker, feedback_fn);
  }

  void on_queue_length(std::size_t data_packets, sim::SimTime now) override {
    detector->on_queue_length(data_packets, now);
  }

  void on_link_destroyed(net::Link& /*l*/) override { link = nullptr; }
};

CoreliteCoreRouter::CoreliteCoreRouter(net::Network& network, net::NodeId node,
                                       const CoreliteConfig& config)
    : net_{network}, node_{node}, cfg_{config} {
  for (net::Link* link : net_.node(node_).out_links()) {
    links_.push_back(std::make_unique<LinkState>(this, link, cfg_, net_.local_sim(node_).rng()));
    link->add_observer(links_.back().get(),
                       net::Link::kObserveEnqueue | net::Link::kObserveQueueLength);
  }
  const auto phase =
      sim::TimeDelta::seconds(net_.local_sim(node_).rng().uniform(0.0, cfg_.core_epoch.sec()));
  epoch_timer_ = net_.local_sim(node_).every(cfg_.core_epoch, [this] { on_epoch(); }, phase);
}

CoreliteCoreRouter::~CoreliteCoreRouter() {
  epoch_timer_.cancel();
  for (auto& ls : links_) {
    if (ls->link != nullptr) ls->link->remove_observer(ls.get());
  }
}

void CoreliteCoreRouter::send_feedback(const net::MarkerInfo& m) {
  net::Packet fb;
  fb.uid = net_.next_packet_uid(node_);
  fb.kind = net::PacketKind::Feedback;
  fb.flow = m.flow;
  fb.src = node_;
  fb.dst = m.edge_router;  // markers carry their generating edge as source
  fb.size = sim::DataSize::zero();
  fb.marker = m;
  fb.feedback_origin = node_;
  fb.created = net_.local_sim(node_).now();
  ++feedback_sent_;
  ++sim::hotpath_counters().feedback_sent;
  net_.inject(node_, std::move(fb));
}

void CoreliteCoreRouter::on_epoch() {
  const sim::SimTime now = net_.local_sim(node_).now();
  for (auto& ls : links_) {
    const double fn = ls->detector->end_epoch(now);
    ls->q_avg.add(now.sec(), ls->detector->last_q_avg());
    if (fn > 0.0) ++ls->congested_epochs;
    ls->selector->on_epoch(fn, ls->feedback_fn);
  }
}

std::vector<CoreliteCoreRouter::LinkDiagnostics> CoreliteCoreRouter::diagnostics() const {
  std::vector<LinkDiagnostics> out;
  out.reserve(links_.size());
  for (const auto& ls : links_) {
    out.push_back({ls->link->to(), ls->detector->last_q_avg(), ls->selector->feedback_count(),
                   ls->congested_epochs, ls->q_avg});
  }
  return out;
}

}  // namespace corelite::qos
