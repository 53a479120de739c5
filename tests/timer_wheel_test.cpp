// Tie-break and tier-equivalence audit for the hierarchical timing
// wheel (src/sim/timer_wheel.h) and its integration in EventQueue.
//
// The contract under test: the two-tier engine (wheel + overflow heap)
// fires events in exactly the same (time, insertion-sequence) total
// order as a heap-only engine — including ties at the same timestamp,
// lazily cancelled events, entries that cascade across wheel levels,
// and entries the wheel declines into the heap.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/timer_wheel.h"
#include "sim/units.h"

namespace corelite::sim {
namespace {

// Deterministic 64-bit mixer (splitmix64) — test-local, no global RNG.
std::uint64_t mix(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// TimerWheel directly: collection order equals a global sort.

TEST(TimerWheel, CollectedSlotsConcatenateToGloballySortedOrder) {
  TimerWheel wheel;
  std::vector<WheelEntry> accepted;
  std::vector<WheelEntry> declined;
  std::uint64_t rng = 42;

  // Times spanning all four levels (ticks 1 .. ~2^30), with deliberate
  // exact ties distinguished only by key.
  for (std::uint64_t key = 0; key < 5000; ++key) {
    const std::uint64_t r = mix(rng);
    const double span = static_cast<double>(1u << ((r >> 8) % 31));  // 1..2^30 ticks
    double at = (1.0 + static_cast<double>(r % 1000) / 1000.0 * span) / TimerWheel::kTicksPerSecond;
    if (key % 7 == 0 && !accepted.empty()) at = accepted.back().at;  // exact tie
    const WheelEntry e{at, key};
    if (wheel.try_insert(e.at, e.key)) {
      accepted.push_back(e);
    } else {
      declined.push_back(e);
    }
  }
  ASSERT_EQ(wheel.count(), accepted.size());
  ASSERT_FALSE(accepted.empty());

  // Collect every slot; EventQueue sorts each slot by exact (at, key),
  // so the concatenation of per-slot sorts must equal the global sort.
  std::vector<WheelEntry> collected;
  while (wheel.count() > 0) {
    std::vector<WheelEntry> slot;
    wheel.collect_next(slot);
    ASSERT_FALSE(slot.empty()) << "collect_next must surface at least one entry";
    std::sort(slot.begin(), slot.end(), [](const WheelEntry& a, const WheelEntry& b) {
      if (a.at != b.at) return a.at < b.at;
      return a.key < b.key;
    });
    collected.insert(collected.end(), slot.begin(), slot.end());
  }

  std::sort(accepted.begin(), accepted.end(), [](const WheelEntry& a, const WheelEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.key < b.key;
  });
  ASSERT_EQ(collected.size(), accepted.size());
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    EXPECT_EQ(collected[i].at, accepted[i].at) << "position " << i;
    EXPECT_EQ(collected[i].key, accepted[i].key) << "position " << i;
  }
}

TEST(TimerWheel, DeclinesPastCurrentAndNonFiniteTimes) {
  TimerWheel wheel;
  EXPECT_FALSE(wheel.try_insert(0.0, 1));  // tick 0 == cursor
  EXPECT_FALSE(wheel.try_insert(-1.0, 2));
  EXPECT_FALSE(wheel.try_insert(std::numeric_limits<double>::infinity(), 3));
  EXPECT_FALSE(wheel.try_insert(std::numeric_limits<double>::quiet_NaN(), 4));
  // Beyond the 4-level horizon (~2^32 ticks).
  EXPECT_FALSE(wheel.try_insert(5.0e32, 5));
  EXPECT_EQ(wheel.count(), 0u);
  // Just inside the horizon is accepted.
  EXPECT_TRUE(wheel.try_insert(1.0 / TimerWheel::kTicksPerSecond, 6));
  EXPECT_EQ(wheel.count(), 1u);
}

TEST(TimerWheel, CascadeAcrossLevelsPreservesEveryEntry) {
  TimerWheel wheel;
  // One entry per level: ticks 3, 3*2^8, 3*2^16, 3*2^24.
  const double tick = 1.0 / TimerWheel::kTicksPerSecond;
  const std::uint64_t ticks[] = {3ULL, 3ULL << 8, 3ULL << 16, 3ULL << 24};
  for (std::uint64_t k = 0; k < 4; ++k) {
    ASSERT_TRUE(wheel.try_insert(static_cast<double>(ticks[k]) * tick, k));
  }
  std::vector<WheelEntry> out;
  while (wheel.count() > 0) wheel.collect_next(out);
  ASSERT_EQ(out.size(), 4u);
  for (std::uint64_t k = 0; k < 4; ++k) EXPECT_EQ(out[k].key, k);
}

TEST(TimerWheel, DrainAllEmptiesEveryLevel) {
  TimerWheel wheel;
  const double tick = 1.0 / TimerWheel::kTicksPerSecond;
  for (std::uint64_t k = 1; k <= 100; ++k) {
    ASSERT_TRUE(wheel.try_insert(static_cast<double>(k * k * 17ULL) * tick, k));
  }
  std::vector<WheelEntry> out;
  wheel.drain_all(out);
  EXPECT_EQ(out.size(), 100u);
  EXPECT_EQ(wheel.count(), 0u);
}

/// `n` times spread over [1.0, 1.4) s in scrambled order: from cursor 0
/// they all share one level-2 slot, so draining them cascades the whole
/// burst through ~200 level-1 slots.
std::vector<double> level2_burst(std::size_t n) {
  std::vector<double> at(n);
  std::uint64_t rng = 99;
  for (double& t : at) t = 1.0 + 0.4 * static_cast<double>(mix(rng) % 1000000) / 1e6;
  return at;
}

TEST(TimerWheel, DrainedBurstGivesStorageBack) {
  TimerWheel wheel;
  const std::vector<double> burst = level2_burst(100000);
  for (std::size_t k = 0; k < burst.size(); ++k) ASSERT_TRUE(wheel.try_insert(burst[k], k));
  EXPECT_GE(wheel.stored_bytes(), burst.size() * sizeof(WheelEntry));
  std::vector<WheelEntry> out;
  while (wheel.count() > 0) wheel.collect_next(out);
  EXPECT_EQ(out.size(), burst.size());
  // Only the per-slot reserve survives; the burst's capacity is back
  // with the allocator.
  EXPECT_LE(wheel.stored_bytes(), std::size_t{128} * 1024);
}

// ---------------------------------------------------------------------------
// EventQueue / Simulator: wheel-on and wheel-off firing order identical.

/// Schedules an identical workload (mixed horizons, exact ties, some
/// cancellations) and returns the firing order as event ids.
std::vector<int> run_workload(bool wheel_on) {
  if (wheel_on) {
    unsetenv("CORELITE_NO_WHEEL");
  } else {
    setenv("CORELITE_NO_WHEEL", "1", 1);
  }
  Simulator s;  // EventQueue reads the escape hatch at construction
  std::vector<int> fired;
  std::vector<EventHandle> handles;
  std::uint64_t rng = 7;
  for (int id = 0; id < 800; ++id) {
    const std::uint64_t r = mix(rng);
    // Mix of horizons: same-instant (heap), microseconds (level 0),
    // milliseconds (level 1) and minutes (level 2+).
    double delay = 0.0;
    switch (r % 4) {
      case 0: delay = 0.0; break;
      case 1: delay = static_cast<double>(r % 97) * 1e-6; break;
      case 2: delay = static_cast<double>(r % 997) * 1e-3; break;
      default: delay = 60.0 + static_cast<double>(r % 89); break;
    }
    if (id % 10 < 3) delay = 0.25;  // deliberate exact ties
    if (id % 5 == 0) {
      handles.push_back(s.at(SimTime::seconds(delay), [&fired, id] { fired.push_back(id); }));
    } else {
      s.at_detached(SimTime::seconds(delay), [&fired, id] { fired.push_back(id); });
    }
  }
  // Cancel every third handle — lazy cancellation must be skipped
  // identically whichever tier holds the entry.
  for (std::size_t i = 0; i < handles.size(); i += 3) handles[i].cancel();
  s.run();
  unsetenv("CORELITE_NO_WHEEL");
  return fired;
}

TEST(EventQueueTiering, WheelOnFiringOrderMatchesHeapOnly) {
  const std::vector<int> on = run_workload(/*wheel_on=*/true);
  const std::vector<int> off = run_workload(/*wheel_on=*/false);
  ASSERT_EQ(on.size(), off.size());
  EXPECT_EQ(on, off);
}

/// Fires the level-2 burst (with exact ties) through an EventQueue and
/// returns the firing order as event ids.
std::vector<std::uint32_t> run_burst(bool wheel_on) {
  if (wheel_on) {
    unsetenv("CORELITE_NO_WHEEL");
  } else {
    setenv("CORELITE_NO_WHEEL", "1", 1);
  }
  EventQueue q;
  unsetenv("CORELITE_NO_WHEEL");
  EXPECT_EQ(q.wheel_enabled(), wheel_on);
  std::vector<double> burst = level2_burst(100000);
  for (std::size_t k = 1; k < burst.size(); k += 9) burst[k] = burst[k - 1];
  std::vector<std::uint32_t> fired;
  fired.reserve(burst.size());
  for (std::uint32_t id = 0; id < burst.size(); ++id) {
    q.schedule_detached(SimTime::seconds(burst[id]), [&fired, id] { fired.push_back(id); });
  }
  while (!q.empty()) q.run_next();
  return fired;
}

TEST(EventQueueTiering, BurstFiringOrderMatchesHeapOnly) {
  const std::vector<std::uint32_t> on = run_burst(/*wheel_on=*/true);
  const std::vector<std::uint32_t> off = run_burst(/*wheel_on=*/false);
  ASSERT_EQ(on.size(), 100000u);
  EXPECT_EQ(on, off);
}

TEST(EventQueueTiering, WheelEnabledReflectsEnvironment) {
  {
    EventQueue q;
    EXPECT_TRUE(q.wheel_enabled());
  }
  setenv("CORELITE_NO_WHEEL", "1", 1);
  {
    EventQueue q;
    EXPECT_FALSE(q.wheel_enabled());
  }
  unsetenv("CORELITE_NO_WHEEL");
}

TEST(EventQueueTiering, SameTimestampFifoAcrossTiers) {
  // A tie inside the drain: two wheel-resident events at time t, and a
  // third scheduled *during* t's own slot drain at exactly t — the wheel
  // declines it (tick == cursor) and it joins the drain buffer.
  // Sequence order must still decide: the second wheel event (earlier
  // seq) fires before the latecomer.
  Simulator s;
  std::vector<int> fired;
  const SimTime t = SimTime::seconds(0.25);
  s.at_detached(t, [&] {
    fired.push_back(1);
    s.at_detached(s.now(), [&fired] { fired.push_back(3); });
  });
  s.at_detached(t, [&fired] { fired.push_back(2); });
  s.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTiering, ClearCancelsWheelResidentEvents) {
  EventQueue q;
  std::vector<EventHandle> handles;
  int fired = 0;
  for (int i = 0; i < 50; ++i) {
    handles.push_back(
        q.schedule(SimTime::seconds(0.001 * (i + 1)), [&fired] { ++fired; }));
  }
  EXPECT_FALSE(q.empty());
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(fired, 0);
  for (const auto& h : handles) EXPECT_FALSE(h.pending());
  // The queue stays usable after clear().
  bool ran = false;
  q.schedule_detached(SimTime::seconds(1.0), [&ran] { ran = true; });
  EXPECT_EQ(q.run_next(), SimTime::seconds(1.0));
  EXPECT_TRUE(ran);
}

TEST(EventQueueTiering, RunUntilDeadlineLeavesWheelEventsPending) {
  Simulator s;
  std::vector<int> fired;
  s.at_detached(SimTime::seconds(1.0), [&] { fired.push_back(1); });
  s.at_detached(SimTime::seconds(2.0), [&] { fired.push_back(2); });
  s.at_detached(SimTime::seconds(3.0), [&] { fired.push_back(3); });
  s.run_until(SimTime::seconds(2.0));  // inclusive boundary
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(s.now(), SimTime::seconds(2.0));
  s.run_until(SimTime::seconds(5.0));
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

// Cold per-flow records, the shape of the edges' emission timers at
// scale: self-rescheduling chains, each updating its own 192-B record
// through a sim::Hinted closure (the dispatcher prefetches an event
// ahead), with periods uniform in [0.2, 0.8] s.  Every firing also
// schedules a follow-up 0-4 us out, most of which fall inside the tick
// being drained and are inserted into the drain buffer.
struct ColdRecord {
  double period;
  std::uint64_t fires = 0;
  double state = 0.0;
  std::uint64_t other[21] = {};
};
static_assert(sizeof(ColdRecord) == 192);

struct ColdChains {
  Simulator& s;
  std::vector<ColdRecord> records;
  std::uint64_t fired = 0;
  std::uint64_t checksum = 0xcbf29ce484222325ULL;

  void arm(std::uint32_t chain, TimeDelta delay) {
    s.after_detached(delay, hinted(&records[chain], [this, chain] { fire(chain); }));
  }

  void note(std::uint64_t x) { checksum = (checksum ^ x) * 0x100000001b3ULL; }

  void fire(std::uint32_t chain) {
    ColdRecord& r = records[chain];
    ++r.fires;
    r.state = r.state * 0.5 + r.period;
    ++fired;
    const double t = s.now().sec();
    std::uint64_t bits = 0;
    std::memcpy(&bits, &t, sizeof bits);
    note(chain);
    note(bits);
    s.after_detached(TimeDelta::micros(static_cast<double>(chain % 5)),
                     [this, chain] { note(~std::uint64_t{chain}); });
    arm(chain, TimeDelta::seconds(r.period));
  }
};

/// Firings and the (chain, fire time) checksum over them, in firing
/// order, of 1 s of warm-up and 3 s of cold-record chains.
std::pair<std::uint64_t, std::uint64_t> run_cold_records(bool wheel_on) {
  if (wheel_on) {
    unsetenv("CORELITE_NO_WHEEL");
  } else {
    setenv("CORELITE_NO_WHEEL", "1", 1);
  }
  constexpr std::uint32_t kChains = 20'000;
  Simulator s;
  ColdChains chains{s, std::vector<ColdRecord>(kChains)};
  Rng rng{20260917};
  for (std::uint32_t c = 0; c < kChains; ++c) {
    chains.records[c].period = rng.uniform(0.2, 0.8);
    chains.arm(c, TimeDelta::seconds(rng.uniform(0.0, chains.records[c].period)));
  }
  s.run_until(SimTime::seconds(1.0));
  chains.fired = 0;
  chains.checksum = 0xcbf29ce484222325ULL;
  s.run_until(SimTime::seconds(4.0));
  unsetenv("CORELITE_NO_WHEEL");
  return {chains.fired, chains.checksum};
}

TEST(EventQueueTiering, ColdRecordChainsFireInHeapOnlyOrder) {
  const auto [on_fired, on_sum] = run_cold_records(/*wheel_on=*/true);
  const auto [off_fired, off_sum] = run_cold_records(/*wheel_on=*/false);
  EXPECT_GT(on_fired, 100'000u);
  EXPECT_EQ(on_fired, off_fired);
  EXPECT_EQ(on_sum, off_sum);
}

}  // namespace
}  // namespace corelite::sim
