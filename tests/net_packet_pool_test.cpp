// Unit tests for the forwarding-plane storage: the packet free-list
// pool, its RAII loan handle, and the block FIFO behind the packet
// queues.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "net/packet_pool.h"
#include "sim/block_fifo.h"
#include "sim/simulator.h"

namespace corelite::net {
namespace {

// ---------------------------------------------------------------------------
// PacketPool

TEST(PacketPool, AcquireReleaseRecyclesSlots) {
  PacketPool pool;
  Packet* a = pool.acquire();
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(pool.outstanding(), 1u);
  pool.release(a);
  EXPECT_EQ(pool.outstanding(), 0u);

  // The freed slot comes back before the pool grows.
  Packet* b = pool.acquire();
  EXPECT_EQ(b, a);
  pool.release(b);
}

TEST(PacketPool, CapacityGrowsInChunksAndStopsGrowingOnReuse) {
  PacketPool pool;
  std::vector<Packet*> held;
  for (int i = 0; i < 100; ++i) held.push_back(pool.acquire());
  EXPECT_EQ(pool.outstanding(), 100u);
  const std::size_t cap = pool.capacity();
  EXPECT_GE(cap, 100u);
  for (Packet* p : held) pool.release(p);

  // Steady-state churn within the high-water mark never grows the pool.
  for (int round = 0; round < 1000; ++round) {
    Packet* p = pool.acquire();
    pool.release(p);
  }
  EXPECT_EQ(pool.capacity(), cap);
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(PacketPool, SlotKeepsAssignedContents) {
  PacketPool pool;
  Packet* p = pool.acquire();
  p->uid = 77;
  p->flow = 3;
  p->size = sim::DataSize::bytes(1000);
  EXPECT_EQ(p->uid, 77u);
  EXPECT_EQ(p->flow, 3u);
  pool.release(p);
}

// ---------------------------------------------------------------------------
// PooledPacket

TEST(PooledPacket, ReleasesOnDestruction) {
  PacketPool pool;
  {
    PooledPacket loan{pool};
    EXPECT_TRUE(static_cast<bool>(loan));
    EXPECT_EQ(pool.outstanding(), 1u);
    loan->uid = 9;
    EXPECT_EQ((*loan).uid, 9u);
  }
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(PooledPacket, MoveTransfersOwnership) {
  PacketPool pool;
  PooledPacket a{pool};
  Packet* raw = a.get();
  PooledPacket b{std::move(a)};
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.get(), raw);
  EXPECT_EQ(pool.outstanding(), 1u);

  PooledPacket c;
  c = std::move(b);
  EXPECT_EQ(c.get(), raw);
  EXPECT_EQ(pool.outstanding(), 1u);
}

TEST(PooledPacket, MoveAssignReleasesPreviousLoan) {
  PacketPool pool;
  PooledPacket a{pool};
  PooledPacket b{pool};
  EXPECT_EQ(pool.outstanding(), 2u);
  a = std::move(b);  // a's original loan goes back to the pool
  EXPECT_EQ(pool.outstanding(), 1u);
}

// Loans hold raw pool pointers; the network keeps the pool alive via
// Simulator::retain(), whose keep-alives outlive the event queue (and
// with it every pending callback holding a loan).
TEST(PooledPacket, SimulatorRetainOutlivesPendingLoans) {
  auto pool = std::make_shared<PacketPool>();
  std::weak_ptr<PacketPool> watch = pool;
  {
    sim::Simulator sim;
    sim.retain(pool);
    pool.reset();
    EXPECT_FALSE(watch.expired());  // the simulator holds the last reference
  }
  EXPECT_TRUE(watch.expired());
}

// ---------------------------------------------------------------------------
// BlockFifo

TEST(BlockFifo, FifoOrder) {
  sim::BlockFifo<int> rb;
  EXPECT_TRUE(rb.empty());
  for (int i = 0; i < 5; ++i) rb.push_back(int{i});
  EXPECT_EQ(rb.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(rb.front(), i);
    rb.pop_front();
  }
  EXPECT_TRUE(rb.empty());
}

TEST(BlockFifo, WrapsAroundWithoutReordering) {
  sim::BlockFifo<int> rb;
  int next_in = 0;
  int next_out = 0;
  // Push/pop cycles far beyond one block cross block boundaries.
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 7; ++i) rb.push_back(int{next_in++});
    for (int i = 0; i < 7; ++i) {
      ASSERT_EQ(rb.front(), next_out++);
      rb.pop_front();
    }
  }
  EXPECT_TRUE(rb.empty());
}

TEST(BlockFifo, GrowsPreservingOrderAcrossWrapPoint) {
  sim::BlockFifo<int> rb;
  // Offset the head so the chain starts mid-block and grows across
  // several block boundaries.
  for (int i = 0; i < 10; ++i) rb.push_back(int{i});
  for (int i = 0; i < 10; ++i) rb.pop_front();
  for (int i = 0; i < 100; ++i) rb.push_back(int{i});
  EXPECT_EQ(rb.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(rb.front(), i);
    rb.pop_front();
  }
}

TEST(BlockFifo, IndexingAndClear) {
  sim::BlockFifo<int> rb;
  for (int i = 0; i < 20; ++i) rb.push_back(int{i * 10});
  for (std::size_t i = 0; i < rb.size(); ++i) EXPECT_EQ(rb.at(i), static_cast<int>(i) * 10);
  rb.clear();
  EXPECT_TRUE(rb.empty());
  EXPECT_EQ(rb.size(), 0u);
  rb.push_back(7);
  EXPECT_EQ(rb.front(), 7);
}

TEST(BlockFifo, MoveOnlyElements) {
  sim::BlockFifo<std::unique_ptr<int>> rb;
  for (int i = 0; i < 40; ++i) rb.push_back(std::make_unique<int>(i));
  for (int i = 0; i < 40; ++i) {
    ASSERT_NE(rb.front(), nullptr);
    EXPECT_EQ(*rb.front(), i);
    rb.pop_front();
  }
}

TEST(BlockFifo, ClearReleasesLiveElements) {
  // clear() must destroy the live elements, not just forget them: a
  // resource-owning element would otherwise keep its resource until its
  // storage happened to be overwritten.
  sim::BlockFifo<std::shared_ptr<int>> rb;
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> watch = token;
  rb.push_back(std::move(token));
  rb.clear();
  EXPECT_TRUE(rb.empty());
  EXPECT_TRUE(watch.expired());
}

TEST(BlockFifo, ClearThenReuseAcrossWrapPoint) {
  sim::BlockFifo<std::shared_ptr<int>> rb;
  // Advance the head so the live range starts mid-block.
  for (int i = 0; i < 12; ++i) rb.push_back(std::make_shared<int>(i));
  for (int i = 0; i < 12; ++i) rb.pop_front();
  std::vector<std::weak_ptr<int>> watches;
  for (int i = 0; i < 10; ++i) {
    auto sp = std::make_shared<int>(100 + i);
    watches.push_back(sp);
    rb.push_back(std::move(sp));
  }
  rb.clear();
  for (const auto& w : watches) EXPECT_TRUE(w.expired());
  // The FIFO stays fully usable after clear.
  for (int i = 0; i < 5; ++i) rb.push_back(std::make_shared<int>(i));
  for (int i = 0; i < 5; ++i) {
    ASSERT_NE(rb.front(), nullptr);
    EXPECT_EQ(*rb.front(), i);
    rb.pop_front();
  }
}

TEST(BlockFifo, DrainedPeakHoldsAtMostOneBlock) {
  sim::BlockFifo<int> q;
  for (int i = 0; i < 10'000; ++i) q.push_back(int{i});
  EXPECT_GE(q.blocks_held(), 10'000 / sim::BlockFifo<int>::kBlockElems);
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_EQ(q.front(), i);
    q.pop_front();
  }
  EXPECT_TRUE(q.empty());
  EXPECT_LE(q.blocks_held(), 1u);
  // The same holds for a peak released by clear().
  for (int i = 0; i < 10'000; ++i) q.push_back(int{i});
  q.clear();
  EXPECT_LE(q.blocks_held(), 1u);
}

TEST(BlockFifo, PooledFifosShareTheFreeList) {
  sim::BlockPool<int> pool{2};
  constexpr std::size_t kBlock = sim::BlockFifo<int>::kBlockElems;
  {
    sim::BlockFifo<int> a;
    sim::BlockFifo<int> b;
    a.use_pool(pool);
    b.use_pool(pool);
    for (std::size_t i = 0; i < 4 * kBlock; ++i) a.push_back(static_cast<int>(i));
    EXPECT_EQ(a.blocks_held(), 4u);
    EXPECT_EQ(pool.size(), 0u);
    std::vector<int> out;
    a.consume([&out](int&& v) { out.push_back(v); });
    ASSERT_EQ(out.size(), 4 * kBlock);
    for (std::size_t i = 0; i < out.size(); ++i) ASSERT_EQ(out[i], static_cast<int>(i));
    // The emptied FIFO keeps its last block; the other three went back,
    // and the one beyond the pool's two went to the allocator.
    EXPECT_EQ(a.blocks_held(), 1u);
    EXPECT_EQ(pool.size(), 2u);
    a.push_back(5);  // refills the kept block
    EXPECT_EQ(pool.size(), 2u);
    b.push_back(7);  // takes a spare
    EXPECT_EQ(pool.size(), 1u);
    EXPECT_EQ(b.front(), 7);
    a.pop_front();
    a.trim();
    EXPECT_EQ(a.blocks_held(), 0u);
    EXPECT_EQ(pool.size(), 2u);
  }
  EXPECT_EQ(pool.size(), 2u);
}

}  // namespace
}  // namespace corelite::net
