// Unit tests for Link: serialization/propagation timing, FIFO service,
// observer callbacks, admission policies, statistics.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/link.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace corelite::net {
namespace {

struct TwoNodeFixture {
  sim::Simulator simulator{1};
  Network network{simulator};
  NodeId a = network.add_node("a");
  NodeId b = network.add_node("b");
  std::vector<Packet> received;

  TwoNodeFixture() {
    network.node(b).set_local_sink([this](Packet&& p) { received.push_back(p); });
  }

  Link& make_link(sim::Rate rate, sim::TimeDelta delay, std::size_t cap = 100) {
    Link& l = network.connect(a, b, rate, delay, cap);
    network.build_routes();
    return l;
  }

  Packet data(std::uint64_t uid = 0, FlowId flow = 1) {
    Packet p;
    p.uid = uid;
    p.kind = PacketKind::Data;
    p.flow = flow;
    p.src = a;
    p.dst = b;
    p.size = sim::DataSize::kilobytes(1);
    p.created = simulator.now();
    return p;
  }
};

TEST(Link, DeliveryTimeIsSerializationPlusPropagation) {
  TwoNodeFixture f;
  // 4 Mbps, 40 ms: 1 KB serializes in 2 ms, so arrival at 42 ms.
  Link& l = f.make_link(sim::Rate::mbps(4), sim::TimeDelta::millis(40));
  l.send(f.data());
  f.simulator.run();
  ASSERT_EQ(f.received.size(), 1u);
  EXPECT_NEAR(f.simulator.now().sec(), 0.042, 1e-9);
}

TEST(Link, BackToBackPacketsSpacedBySerialization) {
  TwoNodeFixture f;
  Link& l = f.make_link(sim::Rate::mbps(4), sim::TimeDelta::zero());
  std::vector<double> arrival_times;
  f.network.node(f.b).set_local_sink(
      [&](Packet&&) { arrival_times.push_back(f.simulator.now().sec()); });
  l.send(f.data(1));
  l.send(f.data(2));
  l.send(f.data(3));
  f.simulator.run();
  ASSERT_EQ(arrival_times.size(), 3u);
  EXPECT_NEAR(arrival_times[0], 0.002, 1e-9);
  EXPECT_NEAR(arrival_times[1], 0.004, 1e-9);
  EXPECT_NEAR(arrival_times[2], 0.006, 1e-9);
}

TEST(Link, ZeroSizeControlSerializesInstantly) {
  TwoNodeFixture f;
  Link& l = f.make_link(sim::Rate::mbps(4), sim::TimeDelta::millis(10));
  Packet m;
  m.kind = PacketKind::Marker;
  m.src = f.a;
  m.dst = f.b;
  m.size = sim::DataSize::zero();
  l.send(std::move(m));
  f.simulator.run();
  ASSERT_EQ(f.received.size(), 1u);
  EXPECT_NEAR(f.simulator.now().sec(), 0.010, 1e-9);  // propagation only
}

TEST(Link, FifoOrderAcrossKinds) {
  TwoNodeFixture f;
  Link& l = f.make_link(sim::Rate::mbps(4), sim::TimeDelta::millis(1));
  l.send(f.data(1));
  Packet m;
  m.uid = 2;
  m.kind = PacketKind::Marker;
  m.src = f.a;
  m.dst = f.b;
  l.send(std::move(m));
  l.send(f.data(3));
  f.simulator.run();
  ASSERT_EQ(f.received.size(), 3u);
  EXPECT_EQ(f.received[0].uid, 1u);
  EXPECT_EQ(f.received[1].uid, 2u);
  EXPECT_EQ(f.received[2].uid, 3u);
}

TEST(Link, TailDropUpdatesStats) {
  TwoNodeFixture f;
  Link& l = f.make_link(sim::Rate::kbps(8), sim::TimeDelta::zero(), /*cap=*/2);
  // 1 KB at 8 kbps = 1 s per packet; flood 10 packets instantly.
  // Packet 0 is dequeued into the transmitter at once, packets 1-2 fill
  // the 2-slot queue, packets 3-9 tail-drop.
  for (int i = 0; i < 10; ++i) l.send(f.data(static_cast<std::uint64_t>(i)));
  f.simulator.run();
  EXPECT_EQ(l.stats().dropped, 7u);
  EXPECT_EQ(l.stats().delivered, 3u);
  EXPECT_EQ(f.received.size(), 3u);
}

struct CountingObserver final : LinkObserver {
  int enq = 0, drop = 0, deq = 0;
  std::vector<std::size_t> lengths;
  void on_enqueue(const Packet&, sim::SimTime) override { ++enq; }
  void on_drop(const Packet&, sim::SimTime) override { ++drop; }
  void on_dequeue(const Packet&, sim::SimTime) override { ++deq; }
  void on_queue_length(std::size_t len, sim::SimTime) override { lengths.push_back(len); }
};

TEST(Link, ObserverSeesEnqueueDequeueDrop) {
  // Declared before the fixture so it outlives the link, whose
  // destructor notifies it.
  CountingObserver obs;
  TwoNodeFixture f;
  Link& l = f.make_link(sim::Rate::kbps(8), sim::TimeDelta::zero(), /*cap=*/1);
  l.add_observer(&obs);
  for (int i = 0; i < 5; ++i) l.send(f.data(static_cast<std::uint64_t>(i)));
  f.simulator.run();
  EXPECT_EQ(obs.enq, 2);   // 1 serializing + 1 queued
  EXPECT_EQ(obs.drop, 3);
  EXPECT_EQ(obs.deq, 2);
  EXPECT_FALSE(obs.lengths.empty());
}

struct RejectOddFlows final : AdmissionPolicy {
  bool admit(Packet& p, sim::SimTime) override { return p.flow % 2 == 0; }
};

TEST(Link, AdmissionPolicyFiltersData) {
  TwoNodeFixture f;
  Link& l = f.make_link(sim::Rate::mbps(4), sim::TimeDelta::zero());
  RejectOddFlows policy;
  l.set_admission(&policy);
  l.send(f.data(1, /*flow=*/1));
  l.send(f.data(2, /*flow=*/2));
  l.send(f.data(3, /*flow=*/3));
  f.simulator.run();
  ASSERT_EQ(f.received.size(), 1u);
  EXPECT_EQ(f.received[0].flow, 2u);
  EXPECT_EQ(l.stats().dropped, 2u);
}

TEST(Link, AdmissionPolicyNotAppliedToControl) {
  TwoNodeFixture f;
  Link& l = f.make_link(sim::Rate::mbps(4), sim::TimeDelta::zero());
  RejectOddFlows policy;  // would reject flow 1
  l.set_admission(&policy);
  Packet m;
  m.kind = PacketKind::Feedback;
  m.flow = 1;
  m.src = f.a;
  m.dst = f.b;
  l.send(std::move(m));
  f.simulator.run();
  EXPECT_EQ(f.received.size(), 1u);
}

struct Relabeler final : AdmissionPolicy {
  bool admit(Packet& p, sim::SimTime) override {
    p.label = 42.0;
    return true;
  }
};

TEST(Link, AdmissionPolicyMayRelabel) {
  TwoNodeFixture f;
  Link& l = f.make_link(sim::Rate::mbps(4), sim::TimeDelta::zero());
  Relabeler policy;
  l.set_admission(&policy);
  Packet p = f.data(1);
  p.label = 7.0;
  l.send(std::move(p));
  f.simulator.run();
  ASSERT_EQ(f.received.size(), 1u);
  EXPECT_DOUBLE_EQ(f.received[0].label, 42.0);
}

TEST(Link, StatsCountDataBytes) {
  TwoNodeFixture f;
  Link& l = f.make_link(sim::Rate::mbps(4), sim::TimeDelta::zero());
  l.send(f.data(1));
  l.send(f.data(2));
  f.simulator.run();
  EXPECT_EQ(l.stats().data_delivered, 2u);
  EXPECT_EQ(l.stats().data_bytes_delivered.byte_count(), 2000);
}

// ---------------------------------------------------------------------------
// Burst transmission: one event per completion.

/// Full externally observable trace of a burst: every observer callback
/// and delivery, tagged with its virtual timestamp.
struct BurstTrace {
  std::vector<std::pair<std::string, double>> log;
  std::uint64_t events = 0;
};

struct TracingObserver final : LinkObserver {
  std::vector<std::pair<std::string, double>>* log;
  void on_dequeue(const Packet& p, sim::SimTime t) override {
    log->emplace_back("deq" + std::to_string(p.uid), t.sec());
  }
  void on_queue_length(std::size_t n, sim::SimTime t) override {
    log->emplace_back("qlen" + std::to_string(n), t.sec());
  }
};

/// 6-packet burst at t=0 on a 4 Mb/s link with a 40 ms pipe (2 ms per
/// packet, so completions at 2..12 ms all precede the first delivery at
/// 42 ms), plus one unrelated mid-burst event at 5 ms that must
/// interleave between the 4 ms and 6 ms completions.  Optionally pauses
/// at `deadline` before finishing the run.
BurstTrace run_burst(double deadline_sec = -1.0) {
  BurstTrace trace;
  TwoNodeFixture f;
  Link& l = f.make_link(sim::Rate::mbps(4), sim::TimeDelta::millis(40));
  TracingObserver obs;
  obs.log = &trace.log;
  l.add_observer(&obs, Link::kObserveDequeue | Link::kObserveQueueLength);
  f.network.node(f.b).set_local_sink([&](Packet&& p) {
    trace.log.emplace_back("arr" + std::to_string(p.uid), f.simulator.now().sec());
  });
  f.simulator.at_detached(sim::SimTime::seconds(0.005), [&] {
    trace.log.emplace_back("tick", f.simulator.now().sec());
  });
  for (std::uint64_t uid = 1; uid <= 6; ++uid) l.send(f.data(uid));
  if (deadline_sec >= 0.0) {
    f.simulator.run_until(sim::SimTime::seconds(deadline_sec));
    trace.log.emplace_back("pause", f.simulator.now().sec());
  }
  f.simulator.run();
  trace.events = f.simulator.events_processed();
  l.remove_observer(&obs);
  return trace;
}

TEST(Link, MidBurstEventInterleavesBetweenCompletions) {
  const BurstTrace trace = run_burst();
  // The 5 ms tick sits between the dequeues at 4 ms and 6 ms.
  const auto find = [&](const std::string& tag) {
    for (std::size_t i = 0; i < trace.log.size(); ++i) {
      if (trace.log[i].first == tag) return i;
    }
    return trace.log.size();
  };
  EXPECT_LT(find("deq3"), find("tick"));
  EXPECT_LT(find("tick"), find("deq4"));
}

TEST(Link, EventsProcessedCountsEveryCompletion) {
  // Six completions, six deliveries and the tick.
  EXPECT_EQ(run_burst().events, 13u);
}

TEST(Link, RunUntilDeadlineStopsTheClockExactly) {
  // Pause mid-burst: the clock stops exactly at the deadline and no
  // later event runs before the pause.
  const BurstTrace trace = run_burst(/*deadline_sec=*/0.005);
  bool saw_pause = false;
  for (const auto& [tag, at] : trace.log) {
    if (tag == "pause") {
      saw_pause = true;
      EXPECT_DOUBLE_EQ(at, 0.005);
    }
    if (!saw_pause) {
      EXPECT_LE(at, 0.005) << tag;
    }
  }
  EXPECT_TRUE(saw_pause);
}

}  // namespace
}  // namespace corelite::net
