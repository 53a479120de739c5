// A FIFO stored in a chain of fixed-size blocks.
//
// The simulator's growable queues — the links' packet queues and the
// timer wheel's slots — swing between empty and tens of thousands of
// elements.  A doubling container keeps the capacity of its largest
// swing (up to half of it slack), and a std::deque allocates and frees
// a node every few elements as a FIFO cycles through it.  A block chain
// holds at most one partly used block at each end, so its footprint
// follows the live size.
//
// An emptied FIFO keeps its last block in place, rewound, so a queue or
// slot that empties and refills over and over writes into the same
// block without touching any free list.  Other blocks come from one of
// two places:
//   - By default a FIFO keeps exactly one spare block of its own.  A
//     queue that oscillates across a block boundary swaps its used-up
//     head block in as the next tail block and never allocates; a
//     drained queue holds one block, and the rest of its peak is back
//     with the allocator.
//   - A FIFO put on a BlockPool (use_pool) takes blocks from and returns
//     them to that shared free list instead, so many mostly empty FIFOs
//     (the timer wheel's 1,024 slots) share a bounded set of spares
//     rather than keeping one each.  trim() hands back the kept block.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace corelite::sim {

/// Elements per block: 16 packets are 1.4 KB and 16 wheel entries
/// 264 B.  gen-pl8-100000 peaks at the same RSS (43.0-43.2 MB) with 8-
/// and 16-element blocks, so the wheel sets the size: its 256 level-0
/// slots each keep an emptied block, and at 32 entries those alone are
/// 133,120 B, past the 128 KiB a drained wheel may hold
/// (TimerWheel.DrainedBurstGivesStorageBack).
inline constexpr std::size_t kFifoBlockElems = 16;

template <class T>
struct FifoBlock {
  static constexpr std::size_t kElems = kFifoBlockElems;
  static_assert((kElems & (kElems - 1)) == 0, "block element count is a power of two");

  FifoBlock* next = nullptr;
  alignas(T) unsigned char raw[kElems * sizeof(T)];

  T* slot(std::size_t i) { return std::launder(reinterpret_cast<T*>(raw) + i); }
  const T* slot(std::size_t i) const {
    return std::launder(reinterpret_cast<const T*>(raw) + i);
  }
};

/// A bounded free list of blocks shared by several FIFOs.  It keeps at
/// most `keep` spare blocks; a block returned beyond that is freed.
template <class T>
class BlockPool {
 public:
  using Block = FifoBlock<T>;

  explicit BlockPool(std::size_t keep) : keep_{keep} {}
  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;
  ~BlockPool() {
    while (free_ != nullptr) delete std::exchange(free_, free_->next);
  }

  Block* take() {
    if (free_ == nullptr) return new Block;
    Block* b = std::exchange(free_, free_->next);
    b->next = nullptr;
    --size_;
    return b;
  }

  void give(Block* b) {
    if (size_ >= keep_) {
      delete b;
      return;
    }
    b->next = free_;
    free_ = b;
    ++size_;
  }

  /// Spare blocks currently held.
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  Block* free_ = nullptr;
  std::size_t size_ = 0;
  std::size_t keep_;
};

template <class T>
class BlockFifo {
 public:
  using Block = FifoBlock<T>;
  static constexpr std::size_t kBlockElems = Block::kElems;

  BlockFifo() = default;
  BlockFifo(const BlockFifo&) = delete;
  BlockFifo& operator=(const BlockFifo&) = delete;
  ~BlockFifo() {
    clear();
    trim();
    delete spare_;
  }

  /// Take blocks from and give them back to `pool` (which must outlive
  /// this FIFO) instead of keeping a spare.  Only while no block is held.
  void use_pool(BlockPool<T>& pool) {
    assert(head_ == nullptr && spare_ == nullptr);
    pool_ = &pool;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  void push_back(T&& v) {
    if (tail_idx_ == kBlockElems) link_tail();
    ::new (static_cast<void*>(tail_->slot(tail_idx_))) T(std::move(v));
    ++tail_idx_;
    ++size_;
  }

  [[nodiscard]] T& front() {
    assert(size_ > 0);
    return *head_->slot(head_idx_);
  }

  void pop_front() {
    assert(size_ > 0);
    std::destroy_at(head_->slot(head_idx_));
    ++head_idx_;
    if (--size_ == 0) {
      emptied();
    } else if (head_idx_ == kBlockElems) {
      retire(std::exchange(head_, head_->next));
      head_idx_ = 0;
    }
  }

  /// Element i positions from the front (0 = front).
  [[nodiscard]] const T& at(std::size_t i) const {
    assert(i < size_);
    i += head_idx_;
    const Block* b = head_;
    for (; i >= kBlockElems; i -= kBlockElems) b = b->next;
    return *b->slot(i);
  }

  /// Destroy every element.
  void clear() {
    while (size_ > 0) pop_front();
  }

  /// Pass every element to `f` as an rvalue, front first, and empty the
  /// FIFO.  Each block but the last goes back as soon as its elements
  /// are passed on, so `f` may fill other FIFOs on the same pool from
  /// it; it must not touch this one.
  template <class F>
  void consume(F&& f) {
    if (size_ == 0) return;
    for (;;) {
      const bool last = head_ == tail_;
      const std::size_t end = last ? tail_idx_ : kBlockElems;
      for (std::size_t i = head_idx_; i < end; ++i) {
        T* e = head_->slot(i);
        f(std::move(*e));
        std::destroy_at(e);
      }
      if (last) break;
      retire(std::exchange(head_, head_->next));
      head_idx_ = 0;
    }
    size_ = 0;
    emptied();
  }

  /// Give back the block an empty FIFO keeps (see emptied()).
  void trim() {
    assert(size_ == 0);
    if (head_ == nullptr) return;
    retire(head_);
    head_ = tail_ = nullptr;
    tail_idx_ = kBlockElems;
  }

  /// Blocks this FIFO holds: its chain (one block when empty, until
  /// trim()) and its own spare.  A pooled FIFO's spares are the pool's.
  [[nodiscard]] std::size_t blocks_held() const {
    std::size_t live = 0;
    if (size_ > 0) {
      live = (head_idx_ + size_ + kBlockElems - 1) / kBlockElems;
    } else if (head_ != nullptr) {
      live = 1;
    }
    return live + (spare_ != nullptr ? 1 : 0);
  }

 private:
  Block* acquire() {
    if (pool_ != nullptr) return pool_->take();
    if (spare_ != nullptr) return std::exchange(spare_, nullptr);
    return new Block;
  }

  void retire(Block* b) {
    if (pool_ != nullptr) {
      pool_->give(b);
    } else if (spare_ == nullptr) {
      spare_ = b;
    } else {
      delete b;
    }
  }

  /// The tail block is full, or there is none: start a new one.
  void link_tail() {
    Block* b = acquire();
    if (tail_ == nullptr) {
      head_ = b;
      head_idx_ = 0;
    } else {
      tail_->next = b;
    }
    tail_ = b;
    tail_idx_ = 0;
  }

  /// The last element is gone.  The FIFO keeps its last block in place,
  /// rewound, so the next push writes into it without taking a block:
  /// a wheel slot or a link queue that empties and refills every lap
  /// never touches the pool.  That block is the one idle block a FIFO
  /// keeps, so its own spare, if any, goes.
  void emptied() {
    head_idx_ = 0;
    tail_idx_ = 0;
    delete std::exchange(spare_, nullptr);
  }

  // A FIFO that holds no block has a "full" tail index, so push_back()
  // tests one condition for both that case and a full tail block.
  Block* head_ = nullptr;
  std::size_t head_idx_ = 0;  ///< next element to pop in head_
  Block* tail_ = nullptr;
  std::size_t tail_idx_ = kBlockElems;  ///< next free element in tail_
  std::size_t size_ = 0;
  Block* spare_ = nullptr;        ///< own spare (no pool)
  BlockPool<T>* pool_ = nullptr;  ///< shared free list, if any
};

}  // namespace corelite::sim
