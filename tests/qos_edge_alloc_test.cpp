// Heap allocations per admitted flow at the edge routers.  The edges
// hold all of the architecture's per-flow state, so their per-flow
// record is the simulator's memory cost at scale: one slot in the flow
// table's slab (allocated a block at a time) plus the flow's copy of its
// activity windows.  An empty per-flow container or a separately
// allocated per-flow object shows up here as a whole allocation per flow.
//
// This binary replaces the global operator new to count allocations, so
// it is its own test executable.
#include <gtest/gtest.h>

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
}  // namespace

void* operator new(std::size_t n) {
  if (g_counting) ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) {
  if (g_counting) ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace corelite {
namespace {

constexpr std::size_t kFlows = 10000;
constexpr double kMaxAllocsPerFlow = 1.5;

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

  /// Heap allocations per flow while `router` admits every spec.
  template <class Router>
  double allocs_per_flow(Router& router) {
    g_allocs = 0;
    g_counting = true;
    for (const net::FlowSpec& fs : specs) router.add_flow(fs);
    g_counting = false;
    return static_cast<double>(g_allocs) / static_cast<double>(kFlows);
  }
};

TEST(EdgeAllocations, CoreliteSourcedFlowsStayCompact) {
  EdgeAllocFixture f;
  qos::CoreliteEdgeRouter er{f.network, f.edge, qos::CoreliteConfig{}};
  const double per_flow = f.allocs_per_flow(er);
  RecordProperty("allocs_per_flow", std::to_string(per_flow));
  EXPECT_LE(per_flow, kMaxAllocsPerFlow);
}

TEST(EdgeAllocations, CsfqSourcedFlowsStayCompact) {
  EdgeAllocFixture f;
  csfq::CsfqEdgeRouter er{f.network, f.edge, csfq::CsfqConfig{}};
  const double per_flow = f.allocs_per_flow(er);
  RecordProperty("allocs_per_flow", std::to_string(per_flow));
  EXPECT_LE(per_flow, kMaxAllocsPerFlow);
}

}  // namespace
}  // namespace corelite
