// Heap allocations on the packet and event paths in the steady state.
// Forwarding is the simulator's hot path: once pool slots, queue blocks
// and event storage have grown to the traffic, injecting, queueing,
// transmitting and delivering a packet must not touch the heap at all,
// and neither must scheduling and firing events through the timer wheel.
//
// This binary replaces the global operator new to count allocations, so
// it is its own test executable.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "net/network.h"
#include "sim/block_fifo.h"
#include "sim/simulator.h"

namespace {
std::uint64_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace corelite {
namespace {

// Paces 1 KB packets into one 10 Mb/s link at 99% of line rate, so the
// queue stays shallow and bounded.
struct Pump {
  sim::Simulator& s;
  net::Network& network;
  net::NodeId a, b;
  sim::DataSize pkt;
  double dt;
  void fire() {
    net::Packet p;
    p.uid = network.next_packet_uid();
    p.flow = 1;
    p.src = a;
    p.dst = b;
    p.size = pkt;
    p.created = s.now();
    network.inject(a, std::move(p));
    s.after_detached(sim::TimeDelta::seconds(dt), [this] { fire(); });
  }
};

TEST(ForwardingAllocations, SteadyStateHopsAllocateNothing) {
  sim::Simulator s;
  net::Network network{s};
  const net::NodeId a = network.add_node("a");
  const net::NodeId b = network.add_node("b");
  const sim::DataSize pkt = sim::DataSize::bytes(1000);
  const sim::Rate rate = sim::Rate::mbps(10);
  network.connect(a, b, rate, sim::TimeDelta::millis(1), 64);
  network.build_routes();
  std::uint64_t delivered = 0;
  network.node(b).set_local_sink([&delivered](net::Packet&&) { ++delivered; });

  Pump pump{s, network, a, b, pkt, rate.serialization_time(pkt).sec() / 0.99};
  pump.fire();
  s.run_until(sim::SimTime::seconds(1));  // warm-up: storage grows to the traffic
  const std::uint64_t allocs0 = g_allocs;
  const std::uint64_t delivered0 = delivered;
  s.run_until(sim::SimTime::seconds(11));
  const std::uint64_t hops = delivered - delivered0;
  EXPECT_GT(hops, 12'000u);
  EXPECT_EQ(g_allocs - allocs0, 0u) << "over " << hops << " hops";
}

// One self-rescheduling chain of detached events 1 us apart: the
// completions of a busy link, and most of them land in the tick being
// drained or the next few level-0 slots.
void arm_chain(sim::Simulator& s, std::uint64_t& fired, std::uint64_t limit) {
  s.after_detached(sim::TimeDelta::micros(1), [&s, &fired, limit] {
    if (++fired < limit) arm_chain(s, fired, limit);
  });
}

TEST(EventAllocations, WheelChainsAllocateNothing) {
  constexpr int kChains = 8;
  sim::Simulator s;
  std::uint64_t fired = 0;
  // Warm-up: slot storage, the drain buffer and the wheel's free list
  // grow to the traffic.
  for (int c = 0; c < kChains; ++c) arm_chain(s, fired, 200'000);
  s.run();
  fired = 0;
  const std::uint64_t allocs0 = g_allocs;
  for (int c = 0; c < kChains; ++c) arm_chain(s, fired, 2'100'000);
  s.run();
  EXPECT_GE(fired, 2'000'000u);
  EXPECT_EQ(g_allocs - allocs0, 0u) << "over " << fired << " events";
}

TEST(BlockFifo, BoundaryCyclesAllocateNothing) {
  constexpr std::size_t kBlock = sim::BlockFifo<net::Packet>::kBlockElems;
  sim::BlockFifo<net::Packet> q;
  std::uint64_t next_in = 0;
  std::uint64_t next_out = 0;
  // One element in, one out: the live element walks across a block
  // boundary every kBlock cycles.  Pushing past a boundary takes the
  // spare block, and popping the last element of the head block gives
  // it back.
  const auto cycle = [&] {
    net::Packet p;
    p.uid = next_in++;
    q.push_back(std::move(p));
    ASSERT_EQ(q.front().uid, next_out++);
    q.pop_front();
  };
  for (std::size_t i = 0; i < kBlock / 2; ++i) {
    net::Packet p;
    p.uid = next_in++;
    q.push_back(std::move(p));
  }
  for (std::size_t i = 0; i < 2 * kBlock; ++i) cycle();  // warm-up: the spare exists
  const std::uint64_t allocs0 = g_allocs;
  for (std::size_t i = 0; i < 100 * kBlock; ++i) cycle();
  EXPECT_EQ(g_allocs - allocs0, 0u);
  EXPECT_EQ(q.size(), kBlock / 2);
  EXPECT_LE(q.blocks_held(), 3u);
}

}  // namespace
}  // namespace corelite
