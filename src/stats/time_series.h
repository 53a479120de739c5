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
// buffers to fragment the heap).  Three series kinds share that layout
// and one read interface (StepSeries):
//   - TimeSeries: every sample is its own 16-byte (t, v) pair.  The
//     bottleneck queue series use it.
//   - RateSeries: values whose times live on a SampleClock owned by
//     their writer.  The allotted-rate series use it: an edge records
//     every active flow at the same epoch instant, so one clock entry
//     serves them all and a point costs its 8-byte value plus a 16-bit
//     clock offset from a per-block 32-bit base (about 10.25 bytes).
//   - CountSeries: exact integer counts sampled on a SampleClock, one
//     count per clock time.  The cumulative-service series use it: a
//     sampler snapshots all of its flows at once, so a count costs 4
//     bytes (a 64-bit base per block plus 32-bit offsets).
// Readers see the same (t, v) doubles in the same order either way.
//
// StepIntegral keeps no samples at all: a running integral of a step
// function for readers that want only its mean over [0, T].
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
  /// Append a sample.  Times must be non-decreasing.
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
/// takes exactly one count per time; RateSeries points name the time
/// they were taken at.  Either way the clock and its series must have a
/// single writer (one sampler, or one LP's edges; see FlowTracker).
class SampleClock {
 public:
  void add(double t) {
    assert(t >= newest_ && "samples must be time-ordered");
    const std::size_t i = times_.size();
    times_.push()[i % kBlockPoints] = t;
    newest_ = t;
  }
  /// Index of time t: the newest entry when t equals it, else a new
  /// entry.  t must not precede the newest time.
  std::uint32_t tick(double t) {
    if (t > newest_) add(t);
    assert(t == newest_ && "samples must be time-ordered on their clock");
    return static_cast<std::uint32_t>(size() - 1);
  }
  [[nodiscard]] std::size_t size() const { return times_.size(); }
  [[nodiscard]] double time(std::size_t i) const { return times_.block_of(i)[i % kBlockPoints]; }
  [[nodiscard]] std::size_t bytes() const { return times_.bytes(); }

 private:
  using Block = std::array<double, kBlockPoints>;
  detail::BlockArray<Block> times_;
  double newest_ = -std::numeric_limits<double>::infinity();
};

/// Values sampled at arbitrary times on a SampleClock the writer owns:
/// add(t, v) puts t on the clock unless it is already the newest entry,
/// so series written at the same instants share their times.
class RateSeries : public StepSeries<RateSeries> {
 public:
  explicit RateSeries(SampleClock& clock) : clock_{&clock} {}

  /// Append a sample.  Times must be non-decreasing across every series
  /// on the clock.  Inline: edges append once per flow per adaptation
  /// epoch — a per-packet-scale rate in big scenarios.
  void add(double t, double v) {
    ++sim::hotpath_counters().series_appends;
    const std::uint32_t tick = clock_->tick(t);
    const std::size_t i = points_.size();
    Block& b = points_.push();
    const std::size_t j = i % kBlockPoints;
    if (j == 0) b.base = tick;
    b.set_tick(j, tick);
    b.v[j] = v;
  }

  [[nodiscard]] std::size_t size() const { return points_.size(); }
  [[nodiscard]] double time(std::size_t i) const {
    return clock_->time(points_.block_of(i).tick(i % kBlockPoints));
  }
  [[nodiscard]] double value(std::size_t i) const {
    return points_.block_of(i).v[i % kBlockPoints];
  }
  /// Heap bytes the series holds (its clock is counted by the owner).
  [[nodiscard]] std::size_t bytes() const;

 private:
  /// 16-bit clock offsets from a 32-bit base.  A block whose points
  /// span more than 65,535 clock entries (a flow idle while others on
  /// its clock keep sampling) keeps 32-bit indices instead.
  struct Block {
    std::unique_ptr<std::uint32_t[]> wide;
    std::uint32_t base;
    std::uint16_t off[kBlockPoints];
    double v[kBlockPoints];

    [[nodiscard]] std::uint32_t tick(std::size_t j) const { return wide ? wide[j] : base + off[j]; }
    void set_tick(std::size_t j, std::uint32_t tick) {
      if (!wide && tick - base > std::numeric_limits<std::uint16_t>::max()) {
        wide = std::make_unique<std::uint32_t[]>(kBlockPoints);
        for (std::size_t k = 0; k < j; ++k) wide[k] = base + off[k];
      }
      if (wide) {
        wide[j] = tick;
      } else {
        off[j] = static_cast<std::uint16_t>(tick - base);
      }
    }
  };

  SampleClock* clock_;
  detail::BlockArray<Block> points_;
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

/// Non-owning reference to any series kind, for writers that take a
/// mix of them by name.
class SeriesRef {
 public:
  template <class Series>
  SeriesRef(const StepSeries<Series>& s)  // NOLINT(google-explicit-constructor)
      : series_{&s}, value_at_{[](const void* p, double t) {
          return static_cast<const StepSeries<Series>*>(p)->value_at(t);
        }} {}
  [[nodiscard]] double value_at(double t) const { return value_at_(series_, t); }

 private:
  const void* series_;
  double (*value_at_)(const void*, double);
};

/// Running integral of a step function fed in time order: average_to(T)
/// is bit for bit what StepSeries::average_over(0, T) returns for the
/// same samples, without keeping them.  T must not precede the last
/// sample.
class StepIntegral {
 public:
  void add(double t, double v) {
    // average_over's steps: samples at or before 0 set the value carried
    // from 0; each later one closes the previous value's segment.
    if (t > t_) {
      integral_ += v_ * (t - t_);
      t_ = t;
    }
    v_ = v;
    any_ = true;
  }
  [[nodiscard]] bool empty() const { return !any_; }
  [[nodiscard]] double average_to(double t1) const {
    if (t1 <= 0.0 || !any_) return 0.0;
    assert(t1 >= t_ && "the mean's horizon precedes a sample");
    return (integral_ + v_ * (t1 - t_)) / t1;
  }

 private:
  double integral_ = 0.0;
  double t_ = 0.0;  ///< time of the last sample after 0, else 0
  double v_ = 0.0;  ///< value of the last sample
  bool any_ = false;
};

extern template class StepSeries<TimeSeries>;
extern template class StepSeries<RateSeries>;
extern template class StepSeries<CountSeries>;

}  // namespace corelite::stats
