// Tests for qos::FlowTable, the per-flow edge state both edge routers
// share: the id index and its size, the active set with swap-removal,
// and the prefetching active-set sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "net/network.h"
#include "qos/flow_table.h"
#include "scenario/flow_gen.h"
#include "scenario/topology_gen.h"
#include "sim/simulator.h"

namespace corelite::qos {
namespace {

struct TestFlow : EdgeFlow {
  TestFlow(const net::FlowSpec& s, const RateAdaptConfig& adapt)
      : EdgeFlow{s, adapt, kNoExtra} {}
  int visits = 0;
};

// The window events are never run here: the test drives the active set
// directly, as the edge routers' start/stop hooks do.
struct NullOwner {
  void start_flow(TestFlow&) {}
  void stop_flow(TestFlow&) {}
};

using Table = FlowTable<TestFlow, NullOwner>;

constexpr net::FlowId kFlows = 1000;

void add_flow(Table& table, net::FlowId id, net::NodeId edge, const RateAdaptConfig& adapt) {
  net::FlowSpec spec;
  spec.id = id;
  spec.ingress = edge;
  spec.egress = edge;
  table.add(spec, adapt);
}

struct FlowTableFixture {
  sim::Simulator simulator{1};
  net::Network network{simulator};
  net::NodeId edge = network.add_node("edge");
  NullOwner owner;
  RateAdaptConfig adapt;
  Table table{owner, network, edge};

  // Flow ids 1..kFlows; id 0 is never added.
  FlowTableFixture() {
    for (net::FlowId id = 1; id <= kFlows; ++id) add_flow(table, id, edge, adapt);
  }

  TestFlow& flow(net::FlowId id) { return *table.lookup(id); }

  // Activate everything, drop every third flow, bring back every ninth,
  // then drop a pseudo-random tenth; returns the expected active ids.
  std::vector<net::FlowId> scripted_churn() {
    std::vector<bool> on(kFlows + 1, false);
    const auto set = [&](net::FlowId id, bool active) {
      EXPECT_EQ(active ? table.activate(flow(id)) : table.deactivate(flow(id)),
                on[id] != active)
          << id;
      on[id] = active;
    };
    for (net::FlowId id = 1; id <= kFlows; ++id) set(id, true);
    for (net::FlowId id = 3; id <= kFlows; id += 3) set(id, false);
    for (net::FlowId id = 9; id <= kFlows; id += 9) set(id, true);
    std::uint64_t lcg = 7;
    for (int k = 0; k < 100; ++k) {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      set(static_cast<net::FlowId>(1 + (lcg >> 33) % kFlows), false);
    }
    set(5, true);   // already active: refused
    set(3, false);  // already inactive: refused
    std::vector<net::FlowId> expected;
    for (net::FlowId id = 1; id <= kFlows; ++id) {
      if (on[id]) expected.push_back(id);
    }
    return expected;
  }
};

TEST(FlowTable, ForEachActiveVisitsTheActiveSetOnceInOrder) {
  FlowTableFixture f;
  const std::vector<net::FlowId> expected = f.scripted_churn();
  ASSERT_GT(expected.size(), 16u);  // longer than the prefetch distance

  std::vector<net::FlowId> order;
  f.table.for_each_active([&](TestFlow& fs) {
    ++fs.visits;
    order.push_back(fs.id);
  });
  std::vector<net::FlowId> active_order;
  for (const TestFlow* fs : f.table.active()) active_order.push_back(fs->id);
  EXPECT_EQ(order, active_order);

  std::sort(order.begin(), order.end());
  EXPECT_EQ(order, expected);
  for (net::FlowId id = 1; id <= kFlows; ++id) {
    EXPECT_EQ(f.flow(id).visits, f.flow(id).active() ? 1 : 0) << id;
  }
}

TEST(FlowTable, ActiveSlotIndexesOwnPositionAfterSwapRemoval) {
  FlowTableFixture f;
  const std::vector<net::FlowId> expected = f.scripted_churn();
  const auto& active = f.table.active();
  ASSERT_EQ(active.size(), expected.size());
  for (std::size_t i = 0; i < active.size(); ++i) {
    EXPECT_EQ(active[i]->active_slot, i) << active[i]->id;
  }
  for (net::FlowId id = 1; id <= kFlows; ++id) {
    const bool listed = std::binary_search(expected.begin(), expected.end(), id);
    EXPECT_EQ(f.flow(id).active(), listed) << id;
    if (!listed) {
      EXPECT_EQ(f.flow(id).active_slot, EdgeFlow::kInactive) << id;
    }
  }
}

TEST(FlowTable, LookupOfUnknownIdIsNull) {
  FlowTableFixture f;
  EXPECT_EQ(f.table.lookup(0), nullptr);  // inside the index, never added
  EXPECT_EQ(f.table.lookup(kFlows + 1), nullptr);
  EXPECT_EQ(f.table.lookup(1u << 30), nullptr);
  ASSERT_NE(f.table.lookup(kFlows), nullptr);
  EXPECT_EQ(f.table.lookup(kFlows)->id, kFlows);
}

// The index is sized by the flows the edge holds, not by the largest
// id: three sparse ids cost a few slots, not a 50M-entry array.
TEST(FlowTable, SparseIdsCostSlotsNotTheIdRange) {
  sim::Simulator simulator{1};
  net::Network network{simulator};
  const net::NodeId edge = network.add_node("edge");
  NullOwner owner;
  const RateAdaptConfig adapt;
  Table table{owner, network, edge};
  const std::vector<net::FlowId> ids{1, 1'000'000, 50'000'000};
  for (net::FlowId id : ids) add_flow(table, id, edge, adapt);

  EXPECT_LT(table.index_bytes(), 1024u);
  for (net::FlowId id : ids) {
    ASSERT_NE(table.lookup(id), nullptr) << id;
    EXPECT_EQ(table.lookup(id)->id, id);
  }
  for (net::FlowId id : {0u, 2u, 999'999u, 1'000'001u, 49'999'999u, 50'000'001u,
                         net::kInvalidFlow}) {
    EXPECT_EQ(table.lookup(id), nullptr) << id;
  }
  // Every other id in a dense range around the sparse ones misses too,
  // whatever slot it hashes to.
  for (net::FlowId id = 0; id < 200'000; ++id) {
    if (id != 1) {
      ASSERT_EQ(table.lookup(id), nullptr) << id;
    }
  }
  const Table& view = table;
  EXPECT_EQ(view.lookup(50'000'000), table.lookup(50'000'000));
}

// Summed over a generated population's edges, the index costs at most
// 32 B per flow, however many edges split the population: the
// scalability workload's 8-stage parking lot and a 32-stage one.
TEST(FlowTable, IndexBytesPerFlowIsFlatInTheNumberOfEdges) {
  constexpr std::size_t kPopulation = 100'000;
  for (const std::size_t stages : {std::size_t{8}, std::size_t{32}}) {
    const scenario::GeneratedTopology topo = scenario::make_parking_lot(stages);
    scenario::FlowGenConfig cfg;
    cfg.num_flows = kPopulation;
    const std::vector<scenario::GenFlow> flows = scenario::generate_flows(topo, cfg, 80.0, 1);

    sim::Simulator simulator{1};
    net::Network network{simulator};
    NullOwner owner;
    const RateAdaptConfig adapt;
    std::vector<net::NodeId> edges;
    std::deque<Table> tables;
    for (std::size_t i = 0; i < topo.sources.size(); ++i) {
      edges.push_back(network.add_node("edge"));
      tables.emplace_back(owner, network, edges.back());
    }
    for (const scenario::GenFlow& f : flows) {
      add_flow(tables[f.src_attach], f.id, edges[f.src_attach], adapt);
    }
    std::size_t bytes = 0;
    for (const Table& t : tables) bytes += t.index_bytes();
    EXPECT_LE(bytes, 32 * kPopulation) << stages << " stages";
    for (const scenario::GenFlow& f : flows) {
      ASSERT_EQ(tables[f.src_attach].lookup(f.id)->id, f.id);
    }
  }
}

}  // namespace
}  // namespace corelite::qos
