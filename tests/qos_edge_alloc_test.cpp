// Heap allocations per admitted flow at the edge routers.  The edges
// hold all of the architecture's per-flow state, so their per-flow
// record is the simulator's memory cost at scale: one slot in the flow
// table's slab, allocated a block of four records at a time, with a
// single activity window held inline.  An empty per-flow container or a
// separately allocated per-flow object shows up here as a whole
// allocation per flow, and a record that grows as heap bytes per flow.
//
// This binary replaces the global operator new to count allocations, so
// it is its own test executable.
#include <gtest/gtest.h>

#include <malloc.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "csfq/edge_router.h"
#include "net/network.h"
#include "qos/edge_router.h"
#include "sim/simulator.h"

namespace {
bool g_counting = false;
std::uint64_t g_allocs = 0;
std::int64_t g_live = 0;  ///< heap bytes held (malloc's usable sizes)

void* counted_new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc{};
  if (g_counting) ++g_allocs;
  g_live += static_cast<std::int64_t>(malloc_usable_size(p));
  return p;
}
void counted_delete(void* p) noexcept {
  if (p != nullptr) g_live -= static_cast<std::int64_t>(malloc_usable_size(p));
  std::free(p);
}
}  // namespace

void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void operator delete(void* p) noexcept { counted_delete(p); }
void operator delete[](void* p) noexcept { counted_delete(p); }
void operator delete(void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_delete(p); }

namespace corelite {
namespace {

constexpr std::size_t kFlows = 10000;
constexpr double kMaxAllocsPerFlow = 0.3;
// Reads about 284 B: a quarter of a 512-B slab block, the flow's id
// index slots and its pending first-window event (slot and wheel
// entry).  A record that no longer fits four to a block adds ~43 B.
constexpr double kMaxBytesPerFlow = 300.0;

struct EdgeAllocFixture {
  sim::Simulator simulator{7};
  net::Network network{simulator};
  net::NodeId edge = network.add_node("edge");
  net::NodeId sink = network.add_node("sink");
  std::vector<net::FlowSpec> specs;

  EdgeAllocFixture() {
    network.connect_duplex(edge, sink, sim::Rate::mbps(100), sim::TimeDelta::millis(1), 100);
    network.build_routes();
    specs.reserve(kFlows);
    for (std::size_t i = 0; i < kFlows; ++i) {
      net::FlowSpec fs;
      fs.id = static_cast<net::FlowId>(i);
      fs.ingress = edge;
      fs.egress = sink;
      fs.weight = 1.0 + static_cast<double>(i % 5);
      specs.push_back(fs);
    }
  }

  /// Heap allocations per flow, and heap bytes held per flow, once
  /// `router` has admitted every spec.
  struct PerFlow {
    double allocs;
    double bytes;
  };
  template <class Router>
  PerFlow admit_all(Router& router) {
    g_allocs = 0;
    const std::int64_t live0 = g_live;
    g_counting = true;
    for (const net::FlowSpec& fs : specs) router.add_flow(fs);
    g_counting = false;
    const auto n = static_cast<double>(kFlows);
    return {static_cast<double>(g_allocs) / n, static_cast<double>(g_live - live0) / n};
  }
};

TEST(EdgeAllocations, CoreliteSourcedFlowsStayCompact) {
  EdgeAllocFixture f;
  qos::CoreliteEdgeRouter er{f.network, f.edge, qos::CoreliteConfig{}};
  const auto per_flow = f.admit_all(er);
  RecordProperty("allocs_per_flow", std::to_string(per_flow.allocs));
  RecordProperty("bytes_per_flow", std::to_string(per_flow.bytes));
  EXPECT_LE(per_flow.allocs, kMaxAllocsPerFlow);
  EXPECT_LE(per_flow.bytes, kMaxBytesPerFlow);
}

TEST(EdgeAllocations, CsfqSourcedFlowsStayCompact) {
  EdgeAllocFixture f;
  csfq::CsfqEdgeRouter er{f.network, f.edge, csfq::CsfqConfig{}};
  const auto per_flow = f.admit_all(er);
  RecordProperty("allocs_per_flow", std::to_string(per_flow.allocs));
  RecordProperty("bytes_per_flow", std::to_string(per_flow.bytes));
  EXPECT_LE(per_flow.allocs, kMaxAllocsPerFlow);
  EXPECT_LE(per_flow.bytes, kMaxBytesPerFlow);
}

}  // namespace
}  // namespace corelite
