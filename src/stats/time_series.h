// Append-only time series of (virtual time, value) samples.
//
// Values are interpreted as a right-continuous step function: the value
// at time t is the most recent sample at or before t.  This matches how
// the tracked quantities behave (allotted rate changes at epoch
// boundaries; cumulative counters jump at packet arrivals).
//
// Storage is append-only fixed-size blocks of kBlockPoints samples
// behind a pointer table.  Growth allocates one block and never copies
// a sample, so a series holds at most one block of slack, and every
// block of a kind has the same size (no doubling ladder of ever larger
// buffers to fragment the heap).  Two series kinds share that layout
// and one read interface (StepSeries):
//   - TimeSeries: every sample is its own 16-byte (t, v) pair.  The
//     allotted-rate series use it: each flow samples at its own epochs.
//   - CountSeries: exact integer counts whose times live in a
//     SampleClock shared by every series sampled at the same instants.
//     The cumulative-service series use it: a sampler snapshots all of
//     its flows at once, so one time column serves them all and a count
//     costs 4 bytes (a 64-bit base per block plus 32-bit offsets).
// Readers see the same (t, v) doubles in the same order either way.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

#include "sim/hotpath.h"

namespace corelite::stats {

/// Samples per storage block (both kinds, and sample clocks).
inline constexpr std::size_t kBlockPoints = 64;

struct SeriesPoint {
  double t;
  double v;
};

namespace detail {

/// Process-wide recycler for one block type: blocks come from chunks of
/// 64 and go back to a free list, never to the allocator.  A finished
/// run frees all its series at once; handed back to malloc, those
/// thousands of blocks left its free lists fragmented around the series
/// still alive (a caller keeping one run's result, as the e2e bench
/// does), which slowed the next runs' set-up by about a tenth.  The
/// pool's footprint is the most blocks ever live at once.  Thread-safe:
/// LP threads and sweep workers append concurrently, one lock per 64
/// samples.  Never destroyed, so series that outlive main() still have
/// a pool to return to.
template <class Block>
class BlockPool {
 public:
  static BlockPool& instance() {
    static auto* pool = new BlockPool;
    return *pool;
  }

  Block* acquire() {
    const std::lock_guard lock{mu_};
    if (free_.empty()) grow();
    Block* b = free_.back();
    free_.pop_back();
    return b;
  }

  /// Take back `n` blocks, each reset to a default-initialized Block.
  void release(Block* const* blocks, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      std::destroy_at(blocks[i]);
      ::new (static_cast<void*>(blocks[i])) Block;
    }
    const std::lock_guard lock{mu_};
    free_.insert(free_.end(), blocks, blocks + n);
  }

 private:
  static constexpr std::size_t kChunkBlocks = 64;

  void grow() {
    chunks_.push_back(std::make_unique_for_overwrite<Block[]>(kChunkBlocks));
    for (std::size_t i = 0; i < kChunkBlocks; ++i) free_.push_back(&chunks_.back()[i]);
  }

  std::mutex mu_;
  std::vector<std::unique_ptr<Block[]>> chunks_;
  std::vector<Block*> free_;
};

/// Append-only array of fixed-size blocks from the BlockPool.  The
/// pointer table doubles (one pointer per block: 1/128 of a rate
/// series' bytes); the blocks never move.  Move-only: series have a
/// single owner.
template <class Block>
class BlockArray {
 public:
  BlockArray() = default;
  BlockArray(BlockArray&& o) noexcept
      : table_{std::exchange(o.table_, nullptr)}, size_{std::exchange(o.size_, 0)} {}
  BlockArray& operator=(BlockArray&& o) noexcept {
    if (this != &o) {
      release();
      table_ = std::exchange(o.table_, nullptr);
      size_ = std::exchange(o.size_, 0);
    }
    return *this;
  }
  ~BlockArray() { release(); }

  [[nodiscard]] std::size_t size() const { return size_; }
  /// The block holding element i.
  [[nodiscard]] const Block& block_of(std::size_t i) const { return *table_[i / kBlockPoints]; }

  /// Claim element size() and return its block — a fresh one when the
  /// last block is full.  The caller fills slot (size() - 1) % kBlockPoints.
  Block& push() {
    assert(size_ < std::numeric_limits<std::uint32_t>::max() && "series too long");
    if (size_ % kBlockPoints == 0) add_block();
    return *table_[size_++ / kBlockPoints];
  }

  /// Heap bytes held: the blocks plus the pointer table.
  [[nodiscard]] std::size_t bytes() const {
    return blocks() * sizeof(Block) + table_capacity(blocks()) * sizeof(Block*);
  }

 private:
  [[nodiscard]] std::size_t blocks() const { return (size_ + kBlockPoints - 1) / kBlockPoints; }
  static std::size_t table_capacity(std::size_t blocks) {
    if (blocks == 0) return 0;
    std::size_t cap = 4;
    while (cap < blocks) cap *= 2;
    return cap;
  }

  void add_block() {
    const std::size_t n = blocks();  // all full: size_ is a multiple of kBlockPoints
    if (n == table_capacity(n)) {
      auto grown = std::make_unique<Block*[]>(table_capacity(n + 1));
      for (std::size_t b = 0; b < n; ++b) grown[b] = table_[b];
      delete[] table_;
      table_ = grown.release();
    }
    table_[n] = BlockPool<Block>::instance().acquire();
  }

  void release() {
    if (table_ != nullptr) BlockPool<Block>::instance().release(table_, blocks());
    delete[] table_;
    table_ = nullptr;
    size_ = 0;
  }

  Block** table_ = nullptr;
  std::uint32_t size_ = 0;
};

}  // namespace detail

/// The read interface both series kinds share.  `Series` provides
/// size(), time(i) and value(i); samples are time-ordered.
template <class Series>
class StepSeries {
 public:
  using Point = SeriesPoint;

  [[nodiscard]] bool empty() const { return self().size() == 0; }

  /// Step-function value at time t (0 before the first sample).
  [[nodiscard]] double value_at(double t) const {
    const std::size_t i = upper(t);
    return i == 0 ? 0.0 : self().value(i - 1);
  }

  /// Value of the final sample (0 if empty).
  [[nodiscard]] double last_value() const {
    return empty() ? 0.0 : self().value(self().size() - 1);
  }

  /// Time-weighted mean of the step function over [t0, t1].
  [[nodiscard]] double average_over(double t0, double t1) const;

  /// Min / max of the step function over [t0, t1]: the value carried
  /// into the window at t0 plus every sample inside it.
  [[nodiscard]] double min_over(double t0, double t1) const;
  [[nodiscard]] double max_over(double t0, double t1) const;

  /// Ordered (t, v) iteration; yields Points by value.
  class iterator {
   public:
    iterator(const Series* s, std::size_t i) : s_{s}, i_{i} {}
    [[nodiscard]] Point operator*() const { return {s_->time(i_), s_->value(i_)}; }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    [[nodiscard]] bool operator==(const iterator& o) const { return i_ == o.i_; }

   private:
    const Series* s_;
    std::size_t i_;
  };
  [[nodiscard]] iterator begin() const { return {&self(), 0}; }
  [[nodiscard]] iterator end() const { return {&self(), self().size()}; }

 private:
  [[nodiscard]] const Series& self() const { return static_cast<const Series&>(*this); }
  /// First index whose time is > t (std::upper_bound's predicate).
  [[nodiscard]] std::size_t upper(double t) const;
};

class TimeSeries : public StepSeries<TimeSeries> {
 public:
  /// Append a sample.  Times must be non-decreasing.  Inline: samples
  /// arrive once per adaptation epoch per flow — a per-packet-scale
  /// rate in big scenarios — so the append must not pay a call.
  void add(double t, double v) {
    assert((empty() || t >= time(size() - 1)) && "samples must be time-ordered");
    ++sim::hotpath_counters().series_appends;
    const std::size_t i = points_.size();
    points_.push()[i % kBlockPoints] = {t, v};
  }

  [[nodiscard]] std::size_t size() const { return points_.size(); }
  [[nodiscard]] double time(std::size_t i) const { return point(i).t; }
  [[nodiscard]] double value(std::size_t i) const { return point(i).v; }
  /// Heap bytes the series holds.
  [[nodiscard]] std::size_t bytes() const { return points_.bytes(); }

 private:
  using Block = std::array<Point, kBlockPoints>;
  [[nodiscard]] const Point& point(std::size_t i) const {
    return points_.block_of(i)[i % kBlockPoints];
  }
  detail::BlockArray<Block> points_;
};

/// One shared column of sample times.  Every CountSeries on the clock
/// takes exactly one count per time, so the clock and its series must
/// have a single writer (one sampler; see FlowTracker).
class SampleClock {
 public:
  void add(double t) {
    assert((size() == 0 || t >= time(size() - 1)) && "samples must be time-ordered");
    const std::size_t i = times_.size();
    times_.push()[i % kBlockPoints] = t;
  }
  [[nodiscard]] std::size_t size() const { return times_.size(); }
  [[nodiscard]] double time(std::size_t i) const { return times_.block_of(i)[i % kBlockPoints]; }
  [[nodiscard]] std::size_t bytes() const { return times_.bytes(); }

 private:
  using Block = std::array<double, kBlockPoints>;
  detail::BlockArray<Block> times_;
};

/// Exact integer counts sampled on a SampleClock.  The series' first
/// count belongs to the clock's newest time when it is added; every
/// later count to the next time, so counts and times stay in step.
class CountSeries : public StepSeries<CountSeries> {
 public:
  explicit CountSeries(const SampleClock& clock) : clock_{&clock} {}

  /// Append the count sampled at the clock's newest time.
  void add(std::uint64_t count) {
    assert(clock_->size() > 0 && "no sample time on the clock");
    assert((empty() || first_tick() + size() == clock_->size() - 1) &&
           "one count per clock time");
    ++sim::hotpath_counters().series_appends;
    const std::size_t i = counts_.size();
    Block& b = counts_.push();
    const std::size_t j = i % kBlockPoints;
    if (j == 0) {
      b.base = count;
      b.first_tick = static_cast<std::uint32_t>(clock_->size() - 1);
    }
    b.set(j, count);
  }

  [[nodiscard]] std::size_t size() const { return counts_.size(); }
  [[nodiscard]] double time(std::size_t i) const { return clock_->time(first_tick() + i); }
  [[nodiscard]] double value(std::size_t i) const { return static_cast<double>(count(i)); }
  [[nodiscard]] std::uint64_t count(std::size_t i) const {
    return counts_.block_of(i).get(i % kBlockPoints);
  }
  /// Heap bytes the series holds (its clock is counted by the owner).
  [[nodiscard]] std::size_t bytes() const;

 private:
  /// 32-bit offsets from a 64-bit base.  A block whose counts spread
  /// over 2^32 or more (or fall below the base) keeps exact 64-bit
  /// copies instead: correct past 2^32 at no cost to the common case.
  struct Block {
    std::uint64_t base;
    std::unique_ptr<std::uint64_t[]> wide;
    std::uint32_t first_tick;  ///< clock index of the block's first count
    std::uint32_t off[kBlockPoints];

    [[nodiscard]] std::uint64_t get(std::size_t j) const { return wide ? wide[j] : base + off[j]; }
    void set(std::size_t j, std::uint64_t v) {
      if (!wide && (v < base || v - base > std::numeric_limits<std::uint32_t>::max())) {
        wide = std::make_unique<std::uint64_t[]>(kBlockPoints);
        for (std::size_t k = 0; k < j; ++k) wide[k] = base + off[k];
      }
      if (wide) {
        wide[j] = v;
      } else {
        off[j] = static_cast<std::uint32_t>(v - base);
      }
    }
  };
  [[nodiscard]] std::size_t first_tick() const { return counts_.block_of(0).first_tick; }

  const SampleClock* clock_;
  detail::BlockArray<Block> counts_;
};

/// Non-owning reference to either series kind, for writers that take a
/// mix of them by name.
class SeriesRef {
 public:
  SeriesRef(const TimeSeries& s) : rate_{&s} {}    // NOLINT(google-explicit-constructor)
  SeriesRef(const CountSeries& s) : count_{&s} {}  // NOLINT(google-explicit-constructor)
  [[nodiscard]] double value_at(double t) const {
    return rate_ != nullptr ? rate_->value_at(t) : count_->value_at(t);
  }

 private:
  const TimeSeries* rate_ = nullptr;
  const CountSeries* count_ = nullptr;
};

extern template class StepSeries<TimeSeries>;
extern template class StepSeries<CountSeries>;

}  // namespace corelite::stats
