// Block-stored series against a plain vector reference, the tracker's
// per-LP sample clocks against serial sampling, and the measurement
// memory budget of a small steady run.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <vector>

#include "scenario/scenario.h"
#include "stats/flow_tracker.h"
#include "stats/time_series.h"

namespace corelite::stats {
namespace {

/// The series as a growing vector of points, with the step-function
/// reads written straight against it.
struct RefSeries {
  std::vector<SeriesPoint> pts;

  void add(double t, double v) { pts.push_back({t, v}); }
  auto upper(double t) const {
    return std::upper_bound(pts.begin(), pts.end(), t,
                            [](double x, const SeriesPoint& p) { return x < p.t; });
  }
  double value_at(double t) const {
    if (pts.empty() || t < pts.front().t) return 0.0;
    return std::prev(upper(t))->v;
  }
  double last_value() const { return pts.empty() ? 0.0 : pts.back().v; }
  double average_over(double t0, double t1) const {
    if (t1 <= t0 || pts.empty()) return 0.0;
    double integral = 0.0;
    double cur_t = t0;
    double cur_v = value_at(t0);
    for (auto it = upper(t0); it != pts.end() && it->t < t1; ++it) {
      integral += cur_v * (it->t - cur_t);
      cur_t = it->t;
      cur_v = it->v;
    }
    integral += cur_v * (t1 - cur_t);
    return integral / (t1 - t0);
  }
  template <class Pick>
  double extreme_over(double t0, double t1, Pick pick) const {
    if (t1 < t0 || pts.empty()) return 0.0;
    double m = value_at(t0);
    for (auto it = upper(t0); it != pts.end() && it->t <= t1; ++it) m = pick(m, it->v);
    return m;
  }
  double min_over(double t0, double t1) const {
    return extreme_over(t0, t1, [](double a, double b) { return std::min(a, b); });
  }
  double max_over(double t0, double t1) const {
    return extreme_over(t0, t1, [](double a, double b) { return std::max(a, b); });
  }
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Every read of `s` bit-equal to the reference, on query times that
/// hit samples exactly, fall between them and lie outside the series.
template <class Series>
void expect_same_reads(const Series& s, const RefSeries& ref, std::mt19937_64& rng) {
  ASSERT_EQ(s.size(), ref.pts.size());
  std::size_t k = 0;
  for (const auto p : s) {
    ASSERT_LT(k, ref.pts.size());
    EXPECT_EQ(bits(p.t), bits(ref.pts[k].t)) << k;
    EXPECT_EQ(bits(p.v), bits(ref.pts[k].v)) << k;
    ++k;
  }
  EXPECT_EQ(k, ref.pts.size());
  EXPECT_EQ(bits(s.last_value()), bits(ref.last_value()));

  std::vector<double> probes{-1.0, 0.0, 1e9};
  for (const auto& p : ref.pts) {
    probes.push_back(p.t);
    probes.push_back(p.t + 0.25);
    probes.push_back(std::nextafter(p.t, -1e300));
  }
  const double span = ref.pts.empty() ? 1.0 : ref.pts.back().t + 1.0;
  std::uniform_real_distribution<double> any(-1.0, span);
  for (int i = 0; i < 200; ++i) probes.push_back(any(rng));
  for (double t : probes) EXPECT_EQ(bits(s.value_at(t)), bits(ref.value_at(t))) << t;

  std::uniform_int_distribution<std::size_t> pick(0, probes.size() - 1);
  for (int i = 0; i < 400; ++i) {
    const double t0 = probes[pick(rng)];
    const double t1 = i % 5 == 0 ? t0 : probes[pick(rng)];  // degenerate and inverted too
    EXPECT_EQ(bits(s.average_over(t0, t1)), bits(ref.average_over(t0, t1))) << t0 << " " << t1;
    EXPECT_EQ(bits(s.min_over(t0, t1)), bits(ref.min_over(t0, t1))) << t0 << " " << t1;
    EXPECT_EQ(bits(s.max_over(t0, t1)), bits(ref.max_over(t0, t1))) << t0 << " " << t1;
  }
}

/// Time-ordered sample times with ties: about a third repeat the last.
std::vector<double> sample_times(std::size_t n, std::mt19937_64& rng) {
  std::vector<double> ts;
  std::uniform_real_distribution<double> step(0.0, 2.0);
  double t = step(rng);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng() % 3 != 0) t += step(rng);
    ts.push_back(t);
  }
  return ts;
}

// Short series, exactly one block, one past it, and many blocks.
constexpr std::size_t kSizes[] = {0, 1, 7, kBlockPoints - 1, kBlockPoints, kBlockPoints + 1,
                                  3 * kBlockPoints, 2500};

TEST(BlockSeries, TimeSeriesReadsMatchVectorReference) {
  std::mt19937_64 rng{11};
  for (std::size_t n : kSizes) {
    SCOPED_TRACE(n);
    TimeSeries s;
    RefSeries ref;
    std::normal_distribution<double> val(50.0, 30.0);
    for (double t : sample_times(n, rng)) {
      const double v = val(rng);
      s.add(t, v);
      ref.add(t, v);
    }
    expect_same_reads(s, ref, rng);
  }
}

TEST(BlockSeries, CountSeriesReadsMatchVectorReference) {
  std::mt19937_64 rng{12};
  for (std::size_t n : kSizes) {
    SCOPED_TRACE(n);
    SampleClock clock;
    // A second series joins the clock late: its first count is the
    // clock's newest time, not the clock's first.
    CountSeries s{clock};
    CountSeries late{clock};
    RefSeries ref;
    RefSeries ref_late;
    std::uint64_t count = rng() % 1000;
    const auto times = sample_times(n, rng);
    for (std::size_t i = 0; i < times.size(); ++i) {
      clock.add(times[i]);
      count += rng() % 50;
      s.add(count);
      ref.add(times[i], static_cast<double>(count));
      if (i >= n / 3) {
        late.add(count / 2);
        ref_late.add(times[i], static_cast<double>(count / 2));
      }
    }
    expect_same_reads(s, ref, rng);
    expect_same_reads(late, ref_late, rng);
  }
}

TEST(BlockSeries, CountsStayExactPast32Bits) {
  SampleClock clock;
  CountSeries s{clock};
  const std::uint64_t big = std::uint64_t{1} << 40;
  std::vector<std::uint64_t> want;
  // Block 0: counts past 2^32 that fit 32-bit offsets from the base.
  for (std::uint64_t i = 0; i < kBlockPoints; ++i) want.push_back(big + i * 1000);
  // Block 1: counts spreading over 2^32 inside the block.
  for (std::uint64_t i = 0; i < kBlockPoints; ++i) want.push_back(big + i * 0x7fffffffULL);
  // Block 2: counts below the block's first, up to the largest count.
  want.push_back(2 * big);
  want.push_back(5);
  want.push_back(std::numeric_limits<std::uint64_t>::max());
  for (std::uint64_t i = 3; i < kBlockPoints; ++i) want.push_back(2 * big + i);
  // A partial block 3.
  for (std::uint64_t i = 0; i < 5; ++i) want.push_back(3 * big + i);
  for (std::size_t i = 0; i < want.size(); ++i) {
    clock.add(static_cast<double>(i));
    s.add(want[i]);
  }
  ASSERT_EQ(s.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(s.count(i), want[i]) << i;
    EXPECT_EQ(bits(s.value(i)), bits(static_cast<double>(want[i]))) << i;
  }
}

TEST(BlockSeries, RecycledBlocksComeBackEmpty) {
  // A block that went wide returns to the pool; the next series to get
  // it must hold plain 32-bit offsets again (no stale 64-bit copies).
  SampleClock clock;
  std::size_t narrow_bytes = 0;
  {
    CountSeries wide{clock};
    clock.add(0.0);
    wide.add(0);
    narrow_bytes = wide.bytes();
    clock.add(1.0);
    wide.add(std::uint64_t{1} << 40);
    ASSERT_EQ(wide.bytes(), narrow_bytes + kBlockPoints * sizeof(std::uint64_t));
  }
  CountSeries narrow{clock};
  for (std::uint64_t i = 0; i < 3; ++i) {
    clock.add(static_cast<double>(clock.size()));
    narrow.add(7 + i);
  }
  for (std::uint64_t i = 0; i < 3; ++i) EXPECT_EQ(narrow.count(i), 7 + i);
  EXPECT_EQ(narrow.bytes(), narrow_bytes);

  // The same for a rate block that went to 32-bit clock indices.
  SampleClock rate_clock;
  std::size_t rate_bytes = 0;
  {
    RateSeries wide{rate_clock};
    wide.add(0.0, 1.0);
    rate_bytes = wide.bytes();
    for (int i = 1; i <= 70'000; ++i) rate_clock.add(static_cast<double>(i));
    wide.add(70'000.0, 2.0);
    ASSERT_EQ(wide.bytes(), rate_bytes + kBlockPoints * sizeof(std::uint32_t));
  }
  RateSeries rate{rate_clock};
  for (int i = 0; i < 3; ++i) rate.add(70'001.0 + i, i);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(rate.time(i), 70'001.0 + i);
  EXPECT_EQ(rate.bytes(), rate_bytes);
}

TEST(BlockSeries, GrowthKeepsAtMostOneBlockOfSlack) {
  TimeSeries s;
  SampleClock clock;
  CountSeries c{clock};
  EXPECT_EQ(s.bytes(), 0u);
  EXPECT_EQ(c.bytes(), 0u);
  for (std::size_t n = 1; n <= 10 * kBlockPoints; ++n) {
    s.add(static_cast<double>(n), 1.0);
    clock.add(static_cast<double>(n));
    c.add(n);
    const std::size_t blocks = (n + kBlockPoints - 1) / kBlockPoints;
    // Whole blocks plus a pointer table of at most max(4, 2 x blocks).
    const std::size_t table = std::max<std::size_t>(4, 2 * blocks) * sizeof(void*);
    EXPECT_LE(s.bytes(), blocks * kBlockPoints * sizeof(SeriesPoint) + table);
    EXPECT_LE(c.bytes(), blocks * (kBlockPoints * 4 + 24) + table);
  }
}

TEST(BlockSeries, RateSeriesOnASharedClockReadsMatchVectorReference) {
  // Three flows on one clock, the way an edge writes them: every active
  // flow at each epoch instant, plus off-epoch start/stop points (their
  // own instants), repeated points at one instant, and a flow that
  // stops, idles past 65,535 clock entries and starts again.
  std::mt19937_64 rng{13};
  SampleClock clock;
  std::vector<RateSeries> flows;
  std::vector<RefSeries> refs(3);
  for (int k = 0; k < 3; ++k) flows.emplace_back(clock);
  auto add = [&](std::size_t f, double t, double v) {
    flows[f].add(t, v);
    refs[f].add(t, v);
  };
  std::normal_distribution<double> val(50.0, 30.0);
  double t = 0.0;
  bool idle = false;  // flow 2 stops at round 300 and restarts at round 70,300
  for (int round = 0; round < 70'600; ++round) {
    t += 0.1;
    if (round == 300) {
      add(2, t - 0.05, 0.0);  // a stop between epochs
      idle = true;
    }
    if (round == 70'300) {
      add(2, t - 0.05, 1.0);  // a start between epochs, then two points at it
      add(2, t - 0.05, 2.0);
      idle = false;
    }
    for (std::size_t f = 0; f < 3; ++f) {
      if (f == 2 && idle) continue;
      if (f == 1 && round % 3 != 0) continue;  // a flow with a longer epoch
      add(f, t, val(rng));
    }
    if (round % 97 == 0) add(0, t, val(rng));  // a second point at one instant
  }
  // Each instant is on the clock once, however many points name it.
  std::vector<double> instants;
  for (const RefSeries& ref : refs) {
    for (const SeriesPoint& p : ref.pts) instants.push_back(p.t);
  }
  std::sort(instants.begin(), instants.end());
  instants.erase(std::unique(instants.begin(), instants.end()), instants.end());
  ASSERT_EQ(clock.size(), instants.size());
  ASSERT_GT(clock.size(), 70'000u);
  for (std::size_t f = 0; f < 3; ++f) {
    SCOPED_TRACE(f);
    expect_same_reads(flows[f], refs[f], rng);
  }
  // The block holding flow 2's stop and restart spans the idle gap, so it
  // alone keeps 32-bit indices.
  SampleClock dense;
  RateSeries narrow{dense};
  for (std::size_t i = 0; i < flows[2].size(); ++i) narrow.add(static_cast<double>(i), 0.0);
  EXPECT_EQ(flows[2].bytes(), narrow.bytes() + kBlockPoints * sizeof(std::uint32_t));
}

TEST(BlockSeries, RateSeriesCostsUnder10AndAHalfBytesPerPoint) {
  // 100k points on a clock shared with other series, so the clock's own
  // bytes are spread over them (its owner counts them).
  constexpr std::size_t kPoints = 100'000;
  SampleClock clock;
  RateSeries s{clock};
  RateSeries other{clock};
  for (std::size_t i = 0; i < kPoints; ++i) {
    s.add(0.1 * static_cast<double>(i), 1.0);
    other.add(0.1 * static_cast<double>(i), 2.0);
  }
  const double per_point = static_cast<double>(s.bytes()) / kPoints;
  RecordProperty("rate_bytes_per_point", std::to_string(per_point));
  EXPECT_LE(per_point, 10.5);
}

TEST(StepIntegral, RunningMeanIsAverageOverBitForBit) {
  // Random time-ordered samples with ties, some at exactly 0 and some at
  // exactly the horizon T: the running mean over [0, T] must be the
  // stored series' average_over(0, T), bit for bit.
  std::mt19937_64 rng{14};
  std::normal_distribution<double> val(20.0, 15.0);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(trial);
    const std::size_t n = rng() % 300;
    auto times = sample_times(n, rng);
    const std::size_t at_zero = n == 0 ? 0 : rng() % std::min<std::size_t>(n, 4);
    for (std::size_t i = 0; i < at_zero; ++i) times[i] = 0.0;
    double T = times.empty() ? 1.0 + static_cast<double>(rng() % 10) : times.back();
    if (trial % 3 == 0) T += 0.5;  // else the last samples sit exactly at T
    StepIntegral running;
    TimeSeries stored;
    for (double t : times) {
      const double v = std::abs(val(rng));
      running.add(t, v);
      stored.add(t, v);
    }
    EXPECT_EQ(running.empty(), stored.empty());
    EXPECT_EQ(bits(running.average_to(T)), bits(stored.average_over(0.0, T)));
    EXPECT_EQ(bits(running.average_to(0.0)), bits(stored.average_over(0.0, 0.0)));
  }
}

// ---------------------------------------------------------------------------
// FlowTracker: per-LP sample clocks

/// The samples a tracker holds, per flow, as (t, v) points.
std::map<net::FlowId, std::vector<SeriesPoint>> cumulative_points(const FlowTracker& t) {
  std::map<net::FlowId, std::vector<SeriesPoint>> out;
  for (const auto& [id, fs] : t.all()) {
    for (const auto p : fs.cumulative_delivered) out[id].push_back(p);
  }
  return out;
}

TEST(FlowTrackerClocks, PerLpSamplingReadsLikeSerialSampling) {
  // Global sample, per-LP subset samples, global sample — the parallel
  // runner's order.  Deliveries land between sample rounds, so a serial
  // tracker fed the same calls with one global sample per round must
  // read the same per-flow (t, v) sequence; so must a per-flow vector
  // fed the subset samples directly.
  FlowTracker lp;
  FlowTracker serial;
  std::map<net::FlowId, std::vector<SeriesPoint>> ref;
  for (net::FlowId id = 1; id <= 6; ++id) {
    lp.declare_flow(id, 1.0);
    serial.declare_flow(id, 1.0);
  }
  const std::vector<net::FlowId> lp0{1, 3, 4};
  const std::vector<net::FlowId> lp1{2, 5, 6};
  const std::size_t c0 = lp.add_sample_clock(lp0);
  const std::size_t c1 = lp.add_sample_clock(lp1);

  auto deliver = [&](net::FlowId id, int n) {
    for (int i = 0; i < n; ++i) {
      lp.on_delivered(id);
      serial.on_delivered(id);
    }
  };
  auto ref_sample = [&](double t, const std::vector<net::FlowId>& ids) {
    for (net::FlowId id : ids) {
      ref[id].push_back({t, static_cast<double>(lp.series(id).delivered)});
    }
  };
  const std::vector<net::FlowId> all{1, 2, 3, 4, 5, 6};

  lp.sample_cumulative(sim::SimTime::seconds(0));
  serial.sample_cumulative(sim::SimTime::seconds(0));
  ref_sample(0.0, all);
  for (int round = 1; round <= 2 * static_cast<int>(kBlockPoints) + 5; ++round) {
    for (net::FlowId id = 1; id <= 6; ++id) deliver(id, (round * static_cast<int>(id)) % 7);
    const double t = 0.5 * round;
    lp.sample_cumulative(sim::SimTime::seconds(t), c1);  // LPs in either order
    lp.sample_cumulative(sim::SimTime::seconds(t), c0);
    serial.sample_cumulative(sim::SimTime::seconds(t));
    ref_sample(t, lp1);
    ref_sample(t, lp0);
  }
  deliver(4, 3);
  lp.sample_cumulative(sim::SimTime::seconds(1000));
  serial.sample_cumulative(sim::SimTime::seconds(1000));
  ref_sample(1000.0, all);

  const auto got = cumulative_points(lp);
  const auto want = cumulative_points(serial);
  ASSERT_EQ(got.size(), 6u);
  for (net::FlowId id = 1; id <= 6; ++id) {
    SCOPED_TRACE(id);
    ASSERT_EQ(got.at(id).size(), want.at(id).size());
    ASSERT_EQ(got.at(id).size(), ref.at(id).size());
    for (std::size_t k = 0; k < got.at(id).size(); ++k) {
      EXPECT_EQ(bits(got.at(id)[k].t), bits(want.at(id)[k].t)) << k;
      EXPECT_EQ(bits(got.at(id)[k].v), bits(want.at(id)[k].v)) << k;
      EXPECT_EQ(bits(got.at(id)[k].t), bits(ref.at(id)[k].t)) << k;
      EXPECT_EQ(bits(got.at(id)[k].v), bits(ref.at(id)[k].v)) << k;
    }
  }
}

TEST(FlowTrackerClocks, PerLpRateClocksReadLikeTheSerialClock) {
  // Each ingress LP records its flows' rates on a clock of its own; the
  // LPs run in either order within a round.  Per flow, the (t, v)
  // sequence must equal the serial tracker's, which has one clock.
  FlowTracker lp;
  FlowTracker serial;
  for (net::FlowId id = 1; id <= 6; ++id) {
    lp.declare_flow(id, 1.0);
    serial.declare_flow(id, 1.0);
  }
  const std::vector<net::FlowId> lp0{1, 3, 4};
  const std::vector<net::FlowId> lp1{2, 5, 6};
  lp.add_rate_clock(lp0);
  lp.add_rate_clock(lp1);
  auto record = [&](FlowTracker& t, const std::vector<net::FlowId>& ids, double at, int round) {
    for (net::FlowId id : ids) {
      t.record_rate(id, sim::SimTime::seconds(at + 0.01 * id), 10.0 * id + round);
    }
  };
  for (int round = 0; round < 3 * static_cast<int>(kBlockPoints); ++round) {
    const double t = 0.5 * round;
    record(lp, round % 2 == 0 ? lp1 : lp0, t, round);
    record(lp, round % 2 == 0 ? lp0 : lp1, t, round);
    record(serial, {1, 2, 3, 4, 5, 6}, t, round);
  }
  for (net::FlowId id = 1; id <= 6; ++id) {
    SCOPED_TRACE(id);
    std::vector<SeriesPoint> got;
    std::vector<SeriesPoint> want;
    for (const auto p : lp.series(id).allotted_rate) got.push_back(p);
    for (const auto p : serial.series(id).allotted_rate) want.push_back(p);
    ASSERT_EQ(got.size(), 3 * kBlockPoints);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(bits(got[k].t), bits(want[k].t)) << k;
      EXPECT_EQ(bits(got[k].v), bits(want[k].v)) << k;
    }
  }
}

// ---------------------------------------------------------------------------
// FlowTracker: per-flow storage

/// One flow's counters as all() yields them.
struct CountersRow {
  net::FlowId id;
  double weight;
  std::uint64_t sent, delivered, dropped, feedback;
  std::vector<double> delays;
  bool operator==(const CountersRow&) const = default;
};

std::vector<CountersRow> counter_rows(const FlowTracker& t) {
  std::vector<CountersRow> rows;
  for (const auto& [id, fs] : t.all()) {
    rows.push_back({id, fs.weight, fs.sent, fs.delivered, fs.dropped, fs.feedback_received,
                    fs.delay_samples});
  }
  return rows;
}

TEST(FlowTrackerStorage, CountersReadTheSameWithSeriesOnAndOff) {
  // Sparse ids declared out of order, one flow only ever bumped (never
  // declared), deliveries with and without delays, rate and cumulative
  // samples: the counters-only tracker must walk the same ids in the
  // same order with the same counters and delay samples.
  FlowTracker on;
  FlowTracker off;
  off.set_series_enabled(false);
  const std::vector<net::FlowId> declared{40, 3, 17, 1, 1000, 2};
  for (FlowTracker* t : {&on, &off}) {
    for (net::FlowId id : declared) t->declare_flow(id, 0.5 + id % 7);
    t->on_dropped(555);  // first seen through a bump: weight 1
    t->sample_cumulative(sim::SimTime::seconds(0));
    for (net::FlowId round = 0; round < 50; ++round) {
      for (net::FlowId id : declared) {
        t->on_sent(id);
        if ((round + id) % 3 != 0) t->on_delivered(id, sim::TimeDelta::millis(round + id));
        if (round % 5 == 0) t->on_delivered(id);
        if (round % 7 == id % 7) t->on_dropped(id);
        if (round % 4 == 0) t->on_feedback(id, 2);
        t->record_rate(id, sim::SimTime::seconds(round), 10.0 + round);
      }
      t->add_synthesized(17, 3, 4, 1);
      t->sample_cumulative(sim::SimTime::seconds(round + 1));
    }
  }
  const auto rows = counter_rows(on);
  ASSERT_EQ(rows.size(), 7u);
  EXPECT_EQ(rows, counter_rows(off));
  std::vector<net::FlowId> ids;
  for (const CountersRow& r : rows) ids.push_back(r.id);
  EXPECT_EQ(ids, (std::vector<net::FlowId>{1, 2, 3, 17, 40, 555, 1000}));
  EXPECT_EQ(on.total_delivered(), off.total_delivered());
  EXPECT_EQ(on.total_dropped(), off.total_dropped());
  EXPECT_GT(on.total_delivered(), 0u);
  EXPECT_FALSE(on.has(4));
  EXPECT_FALSE(off.has(4));
  EXPECT_EQ(off.series(1).weight, 1.5);
  EXPECT_EQ(off.series(555).weight, 1.0);

  // Only the series-on tracker stores rate and cumulative samples.
  EXPECT_EQ(on.series(3).allotted_rate.size(), 50u);
  EXPECT_EQ(on.series(3).cumulative_delivered.size(), 51u);
  EXPECT_TRUE(off.series(3).allotted_rate.empty());
  EXPECT_TRUE(off.series(3).cumulative_delivered.empty());
  EXPECT_EQ(off.series(3).cumulative_delivered.value_at(10.0), 0.0);
  EXPECT_GT(off.footprint().delay_points, 0u);
  EXPECT_EQ(off.footprint().delay_points, on.footprint().delay_points);
}

TEST(FlowTrackerStorage, CountersOnlyFlowsCostUnder50BytesEach) {
  // gen-100k's shape: 100k flows, counters only, with a delay sample on
  // one flow in a hundred.  Every flow pays its counters, a series
  // handle and a bit; series storage is paid only by the flows that
  // recorded a delay.
  constexpr net::FlowId kFlows = 100'000;
  FlowTracker t;
  t.set_series_enabled(false);
  t.reserve(std::size_t{kFlows} + 1);
  for (net::FlowId id = 1; id <= kFlows; ++id) t.declare_flow(id, 1.0 + id % 3);
  for (net::FlowId id = 1; id <= kFlows; ++id) {
    t.on_sent(id);
    const int deliveries = id % 100 == 0 ? static_cast<int>(FlowTracker::kDelaySampleStride) : 1;
    for (int k = 0; k < deliveries; ++k) t.on_delivered(id, sim::TimeDelta::millis(5));
  }
  ASSERT_EQ(t.flow_count(), kFlows);
  const SeriesFootprint f = t.footprint();
  const double per_flow = static_cast<double>(f.record_bytes) / kFlows;
  RecordProperty("record_bytes_per_flow", std::to_string(per_flow));
  EXPECT_LE(per_flow, 49.0);
  EXPECT_EQ(f.delay_points, kFlows / 100);
  EXPECT_EQ(f.rate_points + f.cumulative_points, 0u);
  EXPECT_EQ(f.series_bytes, 0u);  // no clock samples, no series blocks
  EXPECT_LE(f.delay_bytes, (kFlows / 100) * 64 * sizeof(double));
}

// ---------------------------------------------------------------------------
// Memory budget

/// Rate points cost at most 16 B and cumulative points at most 8 B,
/// plus at most one block (the larger kind's) per series.
void expect_within_budget(const FlowTracker& t) {
  const SeriesFootprint f = t.footprint();
  EXPECT_GT(f.rate_points, 0u);
  EXPECT_GT(f.cumulative_points, 0u);
  const std::size_t series = 2 * t.flow_count();
  const std::size_t block = kBlockPoints * sizeof(SeriesPoint);
  EXPECT_LE(f.series_bytes, 16 * f.rate_points + 8 * f.cumulative_points + series * block)
      << "rate " << f.rate_points << " cumulative " << f.cumulative_points;
}

TEST(SeriesBudget, SmallSteadyCsfqRunStaysWithinBudget) {
  std::size_t serial_points = 0;
  for (std::size_t lp : {1, 2}) {
    SCOPED_TRACE(lp);
    auto spec = scenario::scenario_by_name("gen-pl4-60-steady", scenario::Mechanism::Csfq);
    ASSERT_TRUE(spec.has_value());
    spec->duration = sim::SimTime::seconds(40);
    spec->lp = lp;
    const auto r = scenario::run_paper_scenario(*spec);
    ASSERT_EQ(r.tracker.flow_count(), 60u);
    expect_within_budget(r.tracker);
    // Per-LP clocks sample at the serial clock's instants.
    const std::size_t points = r.tracker.footprint().cumulative_points;
    if (lp == 1) serial_points = points;
    EXPECT_EQ(points, serial_points);
    EXPECT_GE(points, 60u * 40u);
  }
}

}  // namespace
}  // namespace corelite::stats
