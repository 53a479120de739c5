// Heap allocations per forwarded hop in the steady state.  Forwarding
// is the simulator's hot path: once pool slots, ring buffers and event
// storage have grown to the traffic, injecting, queueing, transmitting
// and delivering a packet must not touch the heap at all.
//
// This binary replaces the global operator new to count allocations, so
// it is its own test executable.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "net/network.h"
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

}  // namespace
}  // namespace corelite
