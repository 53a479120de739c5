// Per-flow measurement collection.
//
// Tracks exactly what the paper's figures plot:
//   - "Alloted rate": the edge router's allowed transmission rate b_g(f),
//     recorded every adaptation epoch (Figures 3, 5-10).
//   - "Cumulative service": data packets delivered at the egress,
//     sampled periodically (Figure 4).
// Plus drop and delivery counters used in the comparisons.
//
// Storage is sized by what a flow records.  Every flow has one 40-byte
// FlowCounters record in a dense id-indexed array: per-packet bumps
// index it directly, and id-ordered iteration (all(), totals,
// sample_cumulative) walks it.  A flow's FlowSeries (rate, cumulative
// and delay storage) is created only when series are on or the flow
// records its first delay sample, so a counters-only 100k-flow run
// pays about 48 B per flow instead of a series record per flow.
//
// Rate and cumulative samples keep their times on shared SampleClocks
// (see time_series.h): a serial run has one rate clock and one sample
// clock; the parallel engine gives each LP a rate clock for the flows
// whose ingress it owns and a sample clock for the flows whose egress
// it owns, so every clock and every series on it has exactly one writer.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/types.h"
#include "sim/units.h"
#include "stats/time_series.h"

namespace corelite::stats {

/// A flow's counters: what every packet of the flow bumps.
struct FlowCounters {
  double weight = 1.0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t feedback_received = 0;  ///< Corelite markers / CSFQ loss notices
};
// gen-100k holds 100k of these, one per flow id.
static_assert(sizeof(FlowCounters) == 40, "FlowCounters grew");

/// A flow's measurement series, held only by flows that record one.
struct FlowSeries {
  FlowSeries(SampleClock& rate_clock, const SampleClock& clock)
      : allotted_rate{rate_clock}, cumulative_delivered{clock} {}

  RateSeries allotted_rate;         ///< b_g(f) in packets/s vs time
  CountSeries cumulative_delivered; ///< total data packets delivered vs time
  /// One-way delay samples (seconds), subsampled to bound memory:
  /// every `kDelaySampleStride`-th delivered packet contributes.
  std::vector<double> delay_samples;
};

/// What all() and series() yield for one flow: a copy of its counters
/// and its series, which are empty shared ones for a flow that holds
/// none.  The series references stay valid while the tracker lives.
struct FlowRecord : FlowCounters {
  const RateSeries& allotted_rate;
  const CountSeries& cumulative_delivered;
  const std::vector<double>& delay_samples;
};

/// What a tracker's measurement storage holds (FlowTracker::footprint).
struct SeriesFootprint {
  std::size_t rate_points = 0;
  std::size_t cumulative_points = 0;
  std::size_t delay_points = 0;
  std::size_t series_bytes = 0;  ///< rate and count blocks, block tables, sample clocks
  std::size_t rate_bytes = 0;    ///< rate series and rate clocks (part of series_bytes)
  std::size_t delay_bytes = 0;   ///< delay-sample vectors (capacity)
  /// The per-flow-id arrays: counters, series handles and the
  /// declared-id bitmap (capacity; not the series themselves).
  std::size_t record_bytes = 0;
};

class FlowTracker {
 public:
  FlowTracker() {
    columns_.push_back(std::make_unique<Column>());
    rate_clocks_.push_back(std::make_unique<SampleClock>());
  }

  /// Counters-only mode for very large populations: rate and cumulative
  /// samples are not stored (a 100k-flow run would otherwise append one
  /// point per flow per adaptation epoch), and a flow gets series
  /// storage only with its first delay sample.  Per-packet counters,
  /// weights and delay samples are unaffected.  Set before the first
  /// flow is declared.
  void set_series_enabled(bool on) {
    assert(flow_count_ == 0 && "set the series mode before declaring flows");
    series_enabled_ = on;
  }
  [[nodiscard]] bool series_enabled() const { return series_enabled_; }

  /// Size the per-id arrays for ids below `ids` before declaring a
  /// population whose size is known: growth by doubling could leave
  /// almost half of them unused.
  void reserve(std::size_t ids) {
    counters_.reserve(ids);
    series_.reserve(ids);
    declared_.reserve(ids);
  }

  void declare_flow(net::FlowId id, double weight) { slot(id).weight = weight; }

  void record_rate(net::FlowId id, sim::SimTime t, double pps) {
    if (!series_enabled_) return;
    slot(id);
    series_[id]->allotted_rate.add(t.sec(), pps);
  }
  /// Delay sampling stride: one sample per this many deliveries.
  static constexpr std::uint64_t kDelaySampleStride = 8;

  void on_sent(net::FlowId id) { ++slot(id).sent; }
  void on_delivered(net::FlowId id) { ++slot(id).delivered; }
  /// Delivery with a one-way delay measurement (emit -> egress).
  void on_delivered(net::FlowId id, sim::TimeDelta delay) {
    if (++slot(id).delivered % kDelaySampleStride != 0) return;
    // Only the flow's egress writes its delay samples, so creating the
    // series here has a single writer under the parallel engine too.
    std::unique_ptr<FlowSeries>& fs = series_[id];
    if (fs == nullptr) fs = new_series();
    std::vector<double>& d = fs->delay_samples;
    if (d.size() == d.capacity()) d.reserve(d.empty() ? 64 : d.capacity() * 2);
    d.push_back(delay.sec());
  }
  void on_dropped(net::FlowId id) { ++slot(id).dropped; }

  /// Fluid fast-forward synthesis: bulk-bump a flow's packet counters
  /// by whole packets in O(1), with no per-packet events behind them.
  /// No delay samples — the fluid model has no per-packet latencies.
  void add_synthesized(net::FlowId id, std::uint64_t delivered_n, std::uint64_t sent_n,
                       std::uint64_t dropped_n) {
    FlowCounters& c = slot(id);
    c.delivered += delivered_n;
    c.sent += sent_n;
    c.dropped += dropped_n;
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
    col.flows.assign(flows.begin(), flows.end());
    for (net::FlowId id : flows) {
      assert(has(id) && "declare flows before giving them a clock");
      FlowSeries& fs = *series_[id];
      assert(fs.cumulative_delivered.empty() && "move flows to a clock before sampling");
      fs.cumulative_delivered = CountSeries{col.clock};
    }
    return columns_.size() - 1;
  }

  /// Parallel engine: a rate clock of its own for one LP's flows — those
  /// whose ingress edge it owns, the single writer of their rate series.
  /// Call before the first rate sample; flows must already be declared.
  void add_rate_clock(std::span<const net::FlowId> flows) {
    if (!series_enabled_) return;
    SampleClock& clock = *rate_clocks_.emplace_back(std::make_unique<SampleClock>());
    for (net::FlowId id : flows) {
      assert(has(id) && "declare flows before giving them a clock");
      FlowSeries& fs = *series_[id];
      assert(fs.allotted_rate.empty() && "move flows to a clock before recording rates");
      fs.allotted_rate = RateSeries{clock};
    }
  }

  /// Snapshot every flow's cumulative delivery counter at time t: the
  /// time goes on every clock.  Not concurrent with the per-clock form.
  void sample_cumulative(sim::SimTime t) {
    if (!series_enabled_) return;
    for (auto& col : columns_) col->clock.add(t.sec());
    for (std::size_t id = 0; id < series_.size(); ++id) {
      if (series_[id] != nullptr) series_[id]->cumulative_delivered.add(counters_[id].delivered);
    }
  }

  /// Snapshot only the flows of one clock (from add_sample_clock).
  void sample_cumulative(sim::SimTime t, std::size_t clock) {
    if (!series_enabled_) return;
    Column& col = *columns_[clock];
    col.clock.add(t.sec());
    for (net::FlowId id : col.flows) {
      series_[id]->cumulative_delivered.add(counters_[id].delivered);
    }
  }

  /// Points and heap bytes the measurement storage holds.
  [[nodiscard]] SeriesFootprint footprint() const {
    SeriesFootprint f;
    f.record_bytes = counters_.capacity() * sizeof(FlowCounters) +
                     series_.capacity() * sizeof(std::unique_ptr<FlowSeries>) +
                     declared_.capacity() / 8;
    for (const auto& col : columns_) f.series_bytes += col->clock.bytes();
    for (const auto& clock : rate_clocks_) f.rate_bytes += clock->bytes();
    for (const auto& fs : series_) {
      if (fs == nullptr) continue;
      f.rate_points += fs->allotted_rate.size();
      f.cumulative_points += fs->cumulative_delivered.size();
      f.delay_points += fs->delay_samples.size();
      f.rate_bytes += fs->allotted_rate.bytes();
      f.series_bytes += fs->cumulative_delivered.bytes();
      f.delay_bytes += fs->delay_samples.capacity() * sizeof(double);
    }
    f.series_bytes += f.rate_bytes;
    return f;
  }

  /// One flow's counters and series.
  [[nodiscard]] FlowRecord series(net::FlowId id) const {
    if (!has(id)) throw std::out_of_range{"FlowTracker::series: unknown flow"};
    return record(id);
  }
  /// One flow's counters alone (no series lookup).
  [[nodiscard]] const FlowCounters& counters(net::FlowId id) const {
    if (!has(id)) throw std::out_of_range{"FlowTracker::counters: unknown flow"};
    return counters_[id];
  }
  [[nodiscard]] bool has(net::FlowId id) const { return id < declared_.size() && declared_[id]; }
  [[nodiscard]] std::size_t flow_count() const { return flow_count_; }

  /// Id-ordered iteration view; yields (FlowId, FlowRecord) pairs, so
  /// range-for structured bindings read like a std::map.
  class ConstView {
   public:
    class iterator {
     public:
      iterator(const FlowTracker* t, std::size_t id) : t_{t}, id_{t->next_declared(id)} {}
      [[nodiscard]] std::pair<net::FlowId, FlowRecord> operator*() const {
        const auto id = static_cast<net::FlowId>(id_);
        return {id, t_->record(id)};
      }
      iterator& operator++() {
        id_ = t_->next_declared(id_ + 1);
        return *this;
      }
      [[nodiscard]] bool operator!=(const iterator& o) const { return id_ != o.id_; }
      [[nodiscard]] bool operator==(const iterator& o) const { return id_ == o.id_; }

     private:
      const FlowTracker* t_;
      std::size_t id_;
    };
    explicit ConstView(const FlowTracker* t) : t_{t} {}
    [[nodiscard]] iterator begin() const { return {t_, 0}; }
    [[nodiscard]] iterator end() const { return {t_, t_->declared_.size()}; }
    [[nodiscard]] std::size_t size() const { return t_->flow_count_; }

   private:
    const FlowTracker* t_;
  };
  [[nodiscard]] ConstView all() const { return ConstView{this}; }

  // Ids never declared hold zero counters, so totals walk the array.
  [[nodiscard]] std::uint64_t total_dropped() const {
    std::uint64_t n = 0;
    for (const FlowCounters& c : counters_) n += c.dropped;
    return n;
  }
  [[nodiscard]] std::uint64_t total_delivered() const {
    std::uint64_t n = 0;
    for (const FlowCounters& c : counters_) n += c.delivered;
    return n;
  }

 private:
  /// Flow ids are small and dense, and these counters are bumped for
  /// every packet of every flow, so they live in arrays indexed by id;
  /// the bitmap tells a declared flow from an unused id.
  FlowCounters& slot(net::FlowId id) {
    if (!has(id)) declare(id);
    return counters_[id];
  }

  void declare(net::FlowId id) {
    if (id >= declared_.size()) {
      const std::size_t n = std::size_t{id} + 1;
      counters_.resize(n);
      series_.resize(n);
      declared_.resize(n, false);
    }
    declared_[id] = true;
    ++flow_count_;
    if (series_enabled_) series_[id] = new_series();
  }

  /// A flow's series start on the serial clocks.
  std::unique_ptr<FlowSeries> new_series() {
    return std::make_unique<FlowSeries>(*rate_clocks_.front(), columns_.front()->clock);
  }

  [[nodiscard]] std::size_t next_declared(std::size_t id) const {
    while (id < declared_.size() && !declared_[id]) ++id;
    return id;
  }

  [[nodiscard]] FlowRecord record(net::FlowId id) const {
    const FlowSeries& s = series_[id] != nullptr ? *series_[id] : no_series();
    return {counters_[id], s.allotted_rate, s.cumulative_delivered, s.delay_samples};
  }

  /// The empty series a flow without storage reads as.
  static const FlowSeries& no_series() {
    static SampleClock rate_clock;
    static const SampleClock clock;
    static const FlowSeries empty{rate_clock, clock};
    return empty;
  }

  /// A sample clock and the flows sampled on it.  Column 0 is the
  /// serial clock: flows start there, and it samples only through the
  /// global sample_cumulative(t), which walks every flow (its list is
  /// empty).  Heap-allocated so series keep their clock across tracker
  /// moves.
  struct Column {
    SampleClock clock;
    std::vector<net::FlowId> flows;
  };

  std::vector<FlowCounters> counters_;                ///< dense: id -> counters
  std::vector<std::unique_ptr<FlowSeries>> series_;   ///< dense: id -> series, or null
  std::vector<bool> declared_;                        ///< dense: id -> declared
  std::size_t flow_count_ = 0;
  std::vector<std::unique_ptr<Column>> columns_;
  /// Rate clocks: [0] is the serial one, then one per add_rate_clock.
  std::vector<std::unique_ptr<SampleClock>> rate_clocks_;
  bool series_enabled_ = true;
};

}  // namespace corelite::stats
