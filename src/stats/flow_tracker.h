// Per-flow measurement collection.
//
// Tracks exactly what the paper's figures plot:
//   - "Alloted rate": the edge router's allowed transmission rate b_g(f),
//     recorded every adaptation epoch (Figures 3, 5-10).
//   - "Cumulative service": data packets delivered at the egress,
//     sampled periodically (Figure 4).
// Plus drop and delivery counters used in the comparisons.
//
// Storage is scale-friendly: FlowSeries live in a deque (address-stable
// slabs, no per-flow tree node), per-packet counter bumps go through a
// dense id-indexed pointer table, and iteration (all(), totals,
// sample_cumulative) walks a sorted id vector — 100k-flow populations
// pay array walks, not red-black-tree traversals.
//
// Cumulative samples are exact counts on a shared SampleClock (see
// time_series.h): a serial run has one clock; the parallel engine gives
// each LP a clock of its own for the flows whose egress it owns, so
// every clock and every series on it has exactly one writer.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/types.h"
#include "sim/units.h"
#include "stats/time_series.h"

namespace corelite::stats {

struct FlowSeries {
  explicit FlowSeries(const SampleClock& clock) : cumulative_delivered{clock} {}

  double weight = 1.0;
  TimeSeries allotted_rate;         ///< b_g(f) in packets/s vs time
  CountSeries cumulative_delivered; ///< total data packets delivered vs time
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t sent = 0;
  std::uint64_t feedback_received = 0;  ///< Corelite markers / CSFQ loss notices

  /// One-way delay samples (seconds), subsampled to bound memory:
  /// every `kDelaySampleStride`-th delivered packet contributes.
  std::vector<double> delay_samples;
};
// gen-100k holds 100k of these: the series handles must not grow them.
static_assert(sizeof(FlowSeries) <= 112, "FlowSeries grew");

/// What a tracker's measurement storage holds (FlowTracker::footprint).
struct SeriesFootprint {
  std::size_t rate_points = 0;
  std::size_t cumulative_points = 0;
  std::size_t delay_points = 0;
  std::size_t series_bytes = 0;  ///< rate and count blocks, block tables, sample clocks
  std::size_t delay_bytes = 0;   ///< delay-sample vectors (capacity)
};

class FlowTracker {
 public:
  FlowTracker() { columns_.push_back(std::make_unique<Column>()); }

  /// Counters-only mode for very large populations: rate and cumulative
  /// samples are not stored (a 100k-flow run would otherwise append one
  /// point per flow per adaptation epoch).  Per-packet counters, weights
  /// and delay samples are unaffected.  Flip before the run starts.
  void set_series_enabled(bool on) { series_enabled_ = on; }
  [[nodiscard]] bool series_enabled() const { return series_enabled_; }

  void declare_flow(net::FlowId id, double weight) { slot(id).weight = weight; }

  void record_rate(net::FlowId id, sim::SimTime t, double pps) {
    if (series_enabled_) slot(id).allotted_rate.add(t.sec(), pps);
  }
  /// Delay sampling stride: one sample per this many deliveries.
  static constexpr std::uint64_t kDelaySampleStride = 8;

  void on_sent(net::FlowId id) { ++slot(id).sent; }
  void on_delivered(net::FlowId id) { ++slot(id).delivered; }
  /// Delivery with a one-way delay measurement (emit -> egress).
  void on_delivered(net::FlowId id, sim::TimeDelta delay) {
    auto& fs = slot(id);
    ++fs.delivered;
    if (fs.delivered % kDelaySampleStride == 0) {
      if (fs.delay_samples.size() == fs.delay_samples.capacity()) {
        fs.delay_samples.reserve(fs.delay_samples.empty() ? 64
                                                          : fs.delay_samples.capacity() * 2);
      }
      fs.delay_samples.push_back(delay.sec());
    }
  }
  void on_dropped(net::FlowId id) { ++slot(id).dropped; }

  /// Fluid fast-forward synthesis: bulk-bump a flow's packet counters
  /// by whole packets in O(1), with no per-packet events behind them.
  /// No delay samples — the fluid model has no per-packet latencies.
  void add_synthesized(net::FlowId id, std::uint64_t delivered_n, std::uint64_t sent_n,
                       std::uint64_t dropped_n) {
    auto& fs = slot(id);
    fs.delivered += delivered_n;
    fs.sent += sent_n;
    fs.dropped += dropped_n;
  }
  void on_feedback(net::FlowId id, std::uint64_t count = 1) {
    slot(id).feedback_received += count;
  }

  /// Parallel engine: a sample clock of its own for one LP's flows —
  /// those whose egress it owns, so the LP that bumps their `delivered`
  /// counters is the single writer of the clock and its series.  Call
  /// before the first sample; flows must already be declared.  Returns
  /// the id sample_cumulative(t, clock) takes.  A counters-only tracker
  /// samples nothing, so it keeps no clocks and returns 0.
  std::size_t add_sample_clock(std::span<const net::FlowId> flows) {
    if (!series_enabled_) return 0;
    auto& col = *columns_.emplace_back(std::make_unique<Column>());
    col.flows.reserve(flows.size());
    for (net::FlowId id : flows) {
      assert(has(id) && "declare flows before giving them a clock");
      FlowSeries& fs = *index_[id];
      assert(fs.cumulative_delivered.empty() && "move flows to a clock before sampling");
      fs.cumulative_delivered = CountSeries{col.clock};
      col.flows.push_back(&fs);
    }
    return columns_.size() - 1;
  }

  /// Snapshot every flow's cumulative delivery counter at time t: the
  /// time goes on every clock.  Not concurrent with the per-clock form.
  void sample_cumulative(sim::SimTime t) {
    if (!series_enabled_) return;
    for (auto& col : columns_) col->clock.add(t.sec());
    for (net::FlowId id : ids_) {
      auto& fs = *index_[id];
      fs.cumulative_delivered.add(fs.delivered);
    }
  }

  /// Snapshot only the flows of one clock (from add_sample_clock).
  void sample_cumulative(sim::SimTime t, std::size_t clock) {
    if (!series_enabled_) return;
    Column& col = *columns_[clock];
    col.clock.add(t.sec());
    for (FlowSeries* fs : col.flows) fs->cumulative_delivered.add(fs->delivered);
  }

  /// Points and heap bytes the measurement series hold.
  [[nodiscard]] SeriesFootprint footprint() const {
    SeriesFootprint f;
    for (const auto& col : columns_) f.series_bytes += col->clock.bytes();
    for (const FlowSeries& fs : storage_) {
      f.rate_points += fs.allotted_rate.size();
      f.cumulative_points += fs.cumulative_delivered.size();
      f.delay_points += fs.delay_samples.size();
      f.series_bytes += fs.allotted_rate.bytes() + fs.cumulative_delivered.bytes();
      f.delay_bytes += fs.delay_samples.capacity() * sizeof(double);
    }
    return f;
  }

  [[nodiscard]] const FlowSeries& series(net::FlowId id) const {
    if (!has(id)) throw std::out_of_range{"FlowTracker::series: unknown flow"};
    return *index_[id];
  }
  [[nodiscard]] bool has(net::FlowId id) const {
    return id < index_.size() && index_[id] != nullptr;
  }
  [[nodiscard]] std::size_t flow_count() const { return ids_.size(); }

  /// Id-ordered iteration view; yields (FlowId, const FlowSeries&)
  /// pairs, so range-for structured bindings read like the std::map
  /// this replaces.
  class ConstView {
   public:
    class iterator {
     public:
      iterator(const FlowTracker* t, std::size_t i) : t_{t}, i_{i} {}
      [[nodiscard]] std::pair<net::FlowId, const FlowSeries&> operator*() const {
        const net::FlowId id = t_->ids_[i_];
        return {id, *t_->index_[id]};
      }
      iterator& operator++() {
        ++i_;
        return *this;
      }
      [[nodiscard]] bool operator!=(const iterator& o) const { return i_ != o.i_; }
      [[nodiscard]] bool operator==(const iterator& o) const { return i_ == o.i_; }

     private:
      const FlowTracker* t_;
      std::size_t i_;
    };
    explicit ConstView(const FlowTracker* t) : t_{t} {}
    [[nodiscard]] iterator begin() const { return {t_, 0}; }
    [[nodiscard]] iterator end() const { return {t_, t_->ids_.size()}; }
    [[nodiscard]] std::size_t size() const { return t_->ids_.size(); }

   private:
    const FlowTracker* t_;
  };
  [[nodiscard]] ConstView all() const { return ConstView{this}; }

  [[nodiscard]] std::uint64_t total_dropped() const {
    std::uint64_t n = 0;
    for (net::FlowId id : ids_) n += index_[id]->dropped;
    return n;
  }
  [[nodiscard]] std::uint64_t total_delivered() const {
    std::uint64_t n = 0;
    for (net::FlowId id : ids_) n += index_[id]->delivered;
    return n;
  }

 private:
  /// Flow ids are small and dense, and these counters are bumped for
  /// every packet of every flow, so lookups go through a flat pointer
  /// index.  The deque owns the series (address-stable, slab-allocated);
  /// ids_ stays sorted so all() keeps the map's id-ordered iteration.
  FlowSeries& slot(net::FlowId id) {
    if (id < index_.size() && index_[id] != nullptr) return *index_[id];
    storage_.emplace_back(columns_.front()->clock);
    FlowSeries* fs = &storage_.back();
    if (id >= index_.size()) index_.resize(std::size_t{id} + 1, nullptr);
    index_[id] = fs;
    ids_.insert(std::lower_bound(ids_.begin(), ids_.end(), id), id);
    return *fs;
  }

  /// A sample clock and the flows sampled on it.  Column 0 is the
  /// serial clock: flows start there, and it samples only through the
  /// global sample_cumulative(t), which walks ids_ (its list is empty).
  /// Heap-allocated so series keep their clock across tracker moves.
  struct Column {
    SampleClock clock;
    std::vector<FlowSeries*> flows;
  };

  std::deque<FlowSeries> storage_;
  std::vector<net::FlowId> ids_;       ///< sorted; iteration order of all()
  std::vector<FlowSeries*> index_;     ///< dense: id -> series
  std::vector<std::unique_ptr<Column>> columns_;
  bool series_enabled_ = true;
};

}  // namespace corelite::stats
