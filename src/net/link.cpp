#include "net/link.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "net/network.h"
#include "sim/hotpath.h"
#include "telemetry/metrics.h"

namespace corelite::net {

namespace {

// Drop-cause counters, registered once on first use (magic statics) so
// disabled telemetry costs one relaxed load per drop — drops are off the
// per-packet fast path, so this is invisible in the wall-time budget.
const telemetry::Counter& drops_admission() {
  static const telemetry::Counter c{"net.drops.admission"};
  return c;
}
const telemetry::Counter& drops_control_loss() {
  static const telemetry::Counter c{"net.drops.control_loss"};
  return c;
}
const telemetry::Counter& drops_queue_full() {
  static const telemetry::Counter c{"net.drops.queue_full"};
  return c;
}
const telemetry::Counter& drops_queue_internal() {
  static const telemetry::Counter c{"net.drops.queue_internal"};
  return c;
}

}  // namespace

Link::Link(sim::Simulator& simulator, Network& network, NodeId from, NodeId to, sim::Rate rate,
           sim::TimeDelta propagation_delay, std::unique_ptr<PacketQueue> queue)
    : sim_{simulator},
      net_{network},
      pool_{network.packet_pool(from)},
      from_{from},
      to_{to},
      cross_lp_{network.lp_of(from) != network.lp_of(to)},
      lp_from_{network.lp_of(from)},
      rate_{rate},
      prop_delay_{propagation_delay},
      queue_{std::move(queue)} {
  assert(queue_ != nullptr);
  // Queue-internal drops (e.g. WFQ evictions) count and notify exactly
  // like rejected arrivals.
  queue_->set_internal_drop_callback([this](const Packet& p) {
    ++stats_.dropped;
    drops_queue_internal().add();
    notify_drop(p, sim_.now());
  });
}

Link::~Link() {
  // Observers may sit on several event lists; notify each exactly once.
  std::vector<LinkObserver*> unique;
  for (const auto* list : {&enqueue_obs_, &drop_obs_, &dequeue_obs_, &qlen_obs_}) {
    for (auto* obs : *list) {
      if (std::find(unique.begin(), unique.end(), obs) == unique.end()) unique.push_back(obs);
    }
  }
  for (auto* obs : unique) obs->on_link_destroyed(*this);
}

void Link::notify_queue_length() {
  if (qlen_obs_.empty()) return;
  const std::size_t len = queue_->data_packet_count();
  sim::hotpath_counters().observer_dispatches += qlen_obs_.size();
  for (auto* obs : qlen_obs_) obs->on_queue_length(len, sim_.now());
}

void Link::notify_drop(const Packet& p, sim::SimTime now) {
  sim::hotpath_counters().observer_dispatches += drop_obs_.size();
  for (auto* obs : drop_obs_) obs->on_drop(p, now);
}

void Link::send(Packet&& p) {
  const sim::SimTime now = sim_.now();

  if (p.is_data() && admission_ != nullptr && !admission_->admit(p, now)) {
    ++stats_.dropped;
    drops_admission().add();
    notify_drop(p, now);
    return;
  }
  if (p.is_control() && control_loss_rate_ > 0.0 &&
      sim_.rng().bernoulli(control_loss_rate_)) {
    ++stats_.dropped_control;
    drops_control_loss().add();
    notify_drop(p, now);
    return;
  }

  const bool data = p.is_data();
  if (enqueue_obs_.empty()) {
    // Fast path: nobody watches enqueues, so the defensive header copy
    // for post-enqueue notification is pure waste.  Queues leave the
    // packet intact on rejection (contract in queue.h), so the drop
    // notification can use `p` directly.
    if (!queue_->enqueue(std::move(p), now)) {
      ++stats_.dropped;
      drops_queue_full().add();
      notify_drop(p, now);
      return;
    }
    ++stats_.enqueued;
    if (data) notify_queue_length();
  } else {
    // Packet carries no payload (headers only), so keeping a copy for
    // observer notification is cheap and sidesteps moved-from hazards.
    const Packet header = p;
    if (!queue_->enqueue(std::move(p), now)) {
      ++stats_.dropped;
      drops_queue_full().add();
      notify_drop(header, now);
      return;
    }
    ++stats_.enqueued;
    sim::hotpath_counters().observer_dispatches += enqueue_obs_.size();
    for (auto* obs : enqueue_obs_) obs->on_enqueue(header, now);
    if (data) notify_queue_length();
  }
  if (!busy_) start_transmission();
}

void Link::start_transmission() {
  // Dequeue straight into a pooled slot that rides inside the completion
  // event — one packet move per hop and no allocation in the steady
  // state.  (On an empty queue the slot bounces straight back to the
  // free list: two vector ops.)
  PooledPacket pooled{pool_};
  if (!queue_->dequeue_into(*pooled, sim_.now())) {
    busy_ = false;
    return;
  }
  busy_ = true;
  if (!dequeue_obs_.empty()) {
    sim::hotpath_counters().observer_dispatches += dequeue_obs_.size();
    for (auto* obs : dequeue_obs_) obs->on_dequeue(*pooled, sim_.now());
  }
  if (pooled->is_data()) notify_queue_length();
  const sim::TimeDelta ser = rate_.serialization_time(pooled->size);
  sim_.after_detached(ser,
                      [this, pooled = std::move(pooled)]() mutable { on_serialized(std::move(pooled)); });
}

void Link::on_serialized(PooledPacket p) {
  ++stats_.delivered;
  if (p->is_data()) {
    ++stats_.data_delivered;
    stats_.data_bytes_delivered += p->size;
  }
  if (!cross_lp_) {
    const Packet* hint = p.get();  // read before the capture moves p
    sim_.after_detached(prop_delay_, sim::hinted(hint, [this, p = std::move(p)]() mutable {
                          net_.deliver(to_, std::move(*p));
                        }));
  } else {
    // Cut link: the propagation hop crosses an LP boundary.  The packet
    // is copied into the mailbox (due strictly after the current
    // conservative window — prop_delay_ >= the partition's lookahead)
    // and the pooled slot recycles locally right away.
    net_.post_cross_lp(lp_from_, sim_.now() + prop_delay_, to_, *p);
  }
  start_transmission();
}

}  // namespace corelite::net
