// Unit tests for the discrete-event kernel: units, event queue,
// simulator clock, periodic timers, RNG determinism.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "sim/simulator.h"
#include "sim/small_function.h"
#include "sim/units.h"

namespace corelite::sim {
namespace {

// ---------------------------------------------------------------------------
// Units

TEST(Units, TimeDeltaConversions) {
  EXPECT_DOUBLE_EQ(TimeDelta::seconds(1.5).sec(), 1.5);
  EXPECT_DOUBLE_EQ(TimeDelta::millis(250).sec(), 0.25);
  EXPECT_DOUBLE_EQ(TimeDelta::micros(500).sec(), 0.0005);
  EXPECT_DOUBLE_EQ(TimeDelta::seconds(2).ms(), 2000.0);
}

TEST(Units, TimeDeltaArithmetic) {
  const auto a = TimeDelta::seconds(1.0);
  const auto b = TimeDelta::millis(500);
  EXPECT_DOUBLE_EQ((a + b).sec(), 1.5);
  EXPECT_DOUBLE_EQ((a - b).sec(), 0.5);
  EXPECT_DOUBLE_EQ((a * 3).sec(), 3.0);
  EXPECT_DOUBLE_EQ((a / 4).sec(), 0.25);
  EXPECT_DOUBLE_EQ(a / b, 2.0);
  EXPECT_LT(b, a);
}

TEST(Units, SimTimeArithmetic) {
  const auto t = SimTime::seconds(10);
  EXPECT_DOUBLE_EQ((t + TimeDelta::seconds(5)).sec(), 15.0);
  EXPECT_DOUBLE_EQ((t - SimTime::seconds(4)).sec(), 6.0);
  EXPECT_LT(t, SimTime::infinite());
}

TEST(Units, DataSize) {
  EXPECT_EQ(DataSize::kilobytes(1).byte_count(), 1000);
  EXPECT_DOUBLE_EQ(DataSize::bytes(125).bits(), 1000.0);
  EXPECT_TRUE(DataSize::zero().is_zero());
}

TEST(Units, RateConversions) {
  const auto r = Rate::mbps(4);
  EXPECT_DOUBLE_EQ(r.bits_per_second(), 4e6);
  // 4 Mbps at 1 KB packets = 500 packets/s — the paper's link capacity.
  EXPECT_DOUBLE_EQ(r.pps(DataSize::kilobytes(1)), 500.0);
}

TEST(Units, SerializationTime) {
  const auto r = Rate::mbps(4);
  // 1 KB = 8000 bits over 4e6 bps = 2 ms.
  EXPECT_DOUBLE_EQ(r.serialization_time(DataSize::kilobytes(1)).sec(), 0.002);
  // Zero-size (piggybacked control) packets serialize instantly.
  EXPECT_TRUE(r.serialization_time(DataSize::zero()).is_zero());
}

// ---------------------------------------------------------------------------
// EventQueue

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(SimTime::seconds(3), [&] { order.push_back(3); });
  q.schedule(SimTime::seconds(1), [&] { order.push_back(1); });
  q.schedule(SimTime::seconds(2), [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(SimTime::seconds(1), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  auto h = q.schedule(SimTime::seconds(1), [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  auto h = q.schedule(SimTime::seconds(1), [] {});
  q.schedule(SimTime::seconds(2), [] {});
  h.cancel();
  EXPECT_DOUBLE_EQ(q.next_time().sec(), 2.0);
}

TEST(EventQueue, HandleReportsFired) {
  EventQueue q;
  auto h = q.schedule(SimTime::seconds(1), [] {});
  q.run_next();
  EXPECT_FALSE(h.pending());
}

TEST(EventQueue, ClearCancelsOutstandingHandles) {
  EventQueue q;
  bool fired = false;
  auto h = q.schedule(SimTime::seconds(1), [&] { fired = true; });
  ASSERT_TRUE(h.pending());
  q.clear();
  // A cleared event must not look alive to whoever still holds a handle.
  EXPECT_FALSE(h.pending());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, DetachedInterleavesWithHandledInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  // All at the same time: firing order must be exactly schedule order,
  // regardless of which path (handled vs detached) scheduled each one.
  q.schedule(SimTime::seconds(1), [&] { order.push_back(0); });
  q.schedule_detached(SimTime::seconds(1), [&] { order.push_back(1); });
  q.schedule(SimTime::seconds(1), [&] { order.push_back(2); });
  q.schedule_detached(SimTime::seconds(1), [&] { order.push_back(3); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, DetachedFiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_detached(SimTime::seconds(3), [&] { order.push_back(3); });
  q.schedule_detached(SimTime::seconds(1), [&] { order.push_back(1); });
  q.schedule_detached(SimTime::seconds(2), [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SlotsAreRecycled) {
  EventQueue q;
  int fired = 0;
  for (int round = 0; round < 1000; ++round) {
    q.schedule_detached(SimTime::seconds(round), [&] { ++fired; });
    q.run_next();
  }
  EXPECT_EQ(fired, 1000);
  // One event pending at a time -> the pool never grows past a handful.
  EXPECT_LE(q.slot_capacity(), 4u);
}

TEST(EventQueue, AcceptsOnlyClosuresThatStayInline) {
  // The event path never falls back to the heap: a 40-byte capture is
  // stored inline, a 41-byte one is refused at compile time by
  // schedule()/schedule_detached().
  std::array<char, 40> fits{};
  std::array<char, 41> too_big{};
  auto small = [fits] { (void)fits; };
  auto large = [too_big] { (void)too_big; };
  static_assert(EventQueue::Callback::kFitsInline<decltype(small)>);
  static_assert(!EventQueue::Callback::kFitsInline<decltype(large)>);
  static_assert(sizeof(EventQueue::Callback) == 48);
  EventQueue q;
  q.schedule_detached(SimTime::seconds(1), small);
  EXPECT_EQ(q.run_next(), SimTime::seconds(1));
}

// ---------------------------------------------------------------------------
// SmallFunction

TEST(SmallFunction, SmallCaptureStaysInline) {
  int hits = 0;
  SmallFunction<void(), 48> f{[&hits] { ++hits; }};
  EXPECT_TRUE(static_cast<bool>(f));
  EXPECT_TRUE(f.is_inline());
  f();
  f();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFunction, OversizedCaptureFallsBackToHeap) {
  std::array<double, 16> payload{};  // 128 bytes > the 48-byte buffer
  payload[7] = 42.0;
  double seen = 0.0;
  SmallFunction<void(), 48> f{[payload, &seen] { seen = payload[7]; }};
  EXPECT_FALSE(f.is_inline());
  f();
  EXPECT_DOUBLE_EQ(seen, 42.0);
}

TEST(SmallFunction, MoveTransfersCallable) {
  auto counter = std::make_shared<int>(0);
  SmallFunction<void(), 48> a{[counter] { ++*counter; }};
  SmallFunction<void(), 48> b{std::move(a)};
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(*counter, 1);

  SmallFunction<void(), 48> c;
  c = std::move(b);
  c();
  EXPECT_EQ(*counter, 2);
  c.reset();
  EXPECT_FALSE(static_cast<bool>(c));
}

TEST(SmallFunction, DestroysCapturedState) {
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  {
    SmallFunction<void(), 48> f{[token] { (void)*token; }};
    token.reset();
    EXPECT_FALSE(watch.expired());  // the closure keeps it alive
  }
  EXPECT_TRUE(watch.expired());  // destroying the function releases it
}

TEST(SmallFunction, HintedReportsItsPointerAcrossMoves) {
  int record = 0;
  auto token = std::make_shared<int>(0);  // non-trivial: relocates through ops
  SmallFunction<void(), 40> a{hinted(&record, [&record, token] { ++record; })};
  EXPECT_TRUE(a.is_inline());
  EXPECT_EQ(a.hint(), &record);
  SmallFunction<void(), 40> b{std::move(a)};
  EXPECT_EQ(a.hint(), nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.hint(), &record);
  SmallFunction<void(), 40> c;
  c = std::move(b);
  EXPECT_EQ(c.hint(), &record);
  c.consume();
  EXPECT_EQ(record, 1);
  EXPECT_EQ(c.hint(), nullptr);

  int trivial = 0;  // trivially copyable: relocates by memcpy
  SmallFunction<void(), 40> d{hinted(&trivial, [&trivial] { ++trivial; })};
  SmallFunction<void(), 40> e{std::move(d)};
  EXPECT_EQ(e.hint(), &trivial);
}

TEST(SmallFunction, PlainAndHeapCallablesHaveNoHint) {
  int x = 0;
  SmallFunction<void(), 40> empty;
  EXPECT_EQ(empty.hint(), nullptr);
  SmallFunction<void(), 40> plain{[&x] { ++x; }};
  EXPECT_EQ(plain.hint(), nullptr);
  std::array<double, 8> payload{};  // 64 bytes: stored on the heap
  SmallFunction<void(), 40> heap{[payload, &x] { x += static_cast<int>(payload[0]); }};
  ASSERT_FALSE(heap.is_inline());
  EXPECT_EQ(heap.hint(), nullptr);
  SmallFunction<void(), 40> heap_hinted{
      hinted(&x, [payload, &x] { x += static_cast<int>(payload[0]); })};
  ASSERT_FALSE(heap_hinted.is_inline());
  EXPECT_EQ(heap_hinted.hint(), nullptr);
}

// 10,000 events over 2,500 level-0 ticks: several per collected wheel
// slot, with exact ties.  Each of them files one follow-up a few ticks
// on, so collections mix fresh and refilled slots.  With `hint_some`,
// about half of the closures carry a hint.
class MixedBurst {
 public:
  MixedBurst(bool wheel_on, bool hint_some) : hint_some_{hint_some} {
    if (wheel_on) {
      unsetenv("CORELITE_NO_WHEEL");
    } else {
      setenv("CORELITE_NO_WHEEL", "1", 1);
    }
    q_ = std::make_unique<EventQueue>();
    unsetenv("CORELITE_NO_WHEEL");
    EXPECT_EQ(q_->wheel_enabled(), wheel_on);
  }

  std::vector<std::uint32_t> run() {
    for (std::uint32_t id = 0; id < kEvents; ++id) {
      file(0.001 + static_cast<double>(draw() % 2500) / 131072.0 +
               static_cast<double>(draw() % 2) * 1e-6,
           id);
    }
    while (!q_->empty()) q_->run_next();
    return fired_;
  }

 private:
  static constexpr std::uint32_t kEvents = 10000;

  std::uint64_t draw() {
    lcg_ = lcg_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg_ >> 33;
  }

  void file(double at, std::uint32_t id) {
    auto body = [this, id, at] {
      ++touched_[id % kEvents];
      fired_.push_back(id);
      if (id < kEvents) file(at + static_cast<double>(1 + id % 5) / 131072.0, id + kEvents);
    };
    const bool hint = draw() % 2 == 0;  // drawn either way: same times
    if (hint && hint_some_) {
      q_->schedule_detached(SimTime::seconds(at), hinted(&touched_[id % kEvents], body));
    } else {
      q_->schedule_detached(SimTime::seconds(at), body);
    }
  }

  bool hint_some_;
  std::unique_ptr<EventQueue> q_;
  std::uint64_t lcg_ = 12345;
  std::vector<std::uint32_t> touched_ = std::vector<std::uint32_t>(kEvents);
  std::vector<std::uint32_t> fired_;
};

TEST(EventQueue, HintedClosuresNeverChangeFiringOrder) {
  const std::vector<std::uint32_t> mixed = MixedBurst{true, true}.run();
  const std::vector<std::uint32_t> plain = MixedBurst{true, false}.run();
  const std::vector<std::uint32_t> heap_only = MixedBurst{false, true}.run();
  ASSERT_EQ(mixed.size(), 20000u);
  EXPECT_EQ(mixed, plain);
  EXPECT_EQ(mixed, heap_only);
}

// ---------------------------------------------------------------------------
// Simulator

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator s;
  std::vector<double> times;
  s.after(TimeDelta::seconds(1), [&] { times.push_back(s.now().sec()); });
  s.after(TimeDelta::seconds(2.5), [&] { times.push_back(s.now().sec()); });
  s.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.5}));
  EXPECT_DOUBLE_EQ(s.now().sec(), 2.5);
  EXPECT_EQ(s.events_processed(), 2u);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator s;
  int fired = 0;
  s.after(TimeDelta::seconds(1), [&] { ++fired; });
  s.after(TimeDelta::seconds(5), [&] { ++fired; });
  s.run_until(SimTime::seconds(3));
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(s.now().sec(), 3.0);  // clock advances to the deadline
  s.run_until(SimTime::seconds(10));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, NestedSchedulingFromCallbacks) {
  Simulator s;
  std::vector<double> times;
  s.after(TimeDelta::seconds(1), [&] {
    times.push_back(s.now().sec());
    s.after(TimeDelta::seconds(1), [&] { times.push_back(s.now().sec()); });
  });
  s.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
}

TEST(Simulator, PeriodicFiresUntilCancelled) {
  Simulator s;
  int count = 0;
  auto h = s.every(TimeDelta::seconds(1), [&] { ++count; });
  s.run_until(SimTime::seconds(5.5));
  EXPECT_EQ(count, 5);
  h.cancel();
  s.run_until(SimTime::seconds(20));
  EXPECT_EQ(count, 5);
}

TEST(Simulator, PeriodicCancelFromInsideCallback) {
  Simulator s;
  int count = 0;
  PeriodicHandle h;
  h = s.every(TimeDelta::seconds(1), [&] {
    if (++count == 3) h.cancel();
  });
  s.run_until(SimTime::seconds(100));
  EXPECT_EQ(count, 3);
}

TEST(Simulator, StopHaltsRun) {
  Simulator s;
  int count = 0;
  s.every(TimeDelta::seconds(1), [&] {
    if (++count == 4) s.stop();
  });
  s.run_until(SimTime::seconds(1000));
  EXPECT_EQ(count, 4);
}

// ---------------------------------------------------------------------------
// Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform01(), b.uniform01());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform01() == b.uniform01()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, Uniform01InRange) {
  Rng r{7};
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng r{7};
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
    EXPECT_FALSE(r.bernoulli(-1.0));
    EXPECT_TRUE(r.bernoulli(2.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng r{7};
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, UniformIntBounds) {
  Rng r{7};
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, SampleIndicesDistinct) {
  Rng r{7};
  const auto idx = r.sample_indices(10, 4);
  ASSERT_EQ(idx.size(), 4u);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    EXPECT_LT(idx[i], 10u);
    for (std::size_t j = i + 1; j < idx.size(); ++j) EXPECT_NE(idx[i], idx[j]);
  }
}

TEST(Rng, SampleIndicesWantMoreThanAvailable) {
  Rng r{7};
  const auto idx = r.sample_indices(3, 10);
  EXPECT_EQ(idx.size(), 3u);
}

TEST(Rng, ExponentialMean) {
  Rng r{7};
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += r.exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

}  // namespace
}  // namespace corelite::sim
