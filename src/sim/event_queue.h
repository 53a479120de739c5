// A cancellable discrete-event priority queue, allocation-free in the
// steady state.
//
// Events are ordered by (time, insertion sequence): ties on time fire in
// the order they were scheduled, which makes simulations deterministic.
// Cancellation is lazy — a cancelled event stays filed but is skipped
// when it surfaces.
//
// Dispatch is two-tiered.  A hierarchical timing wheel (timer_wheel.h)
// is the primary structure: the dominant event classes — link transmit
// completions and paced emission timers — are short-horizon and
// near-monotonic, so filing them is two array writes instead of a heap
// sift.  The indexed 4-ary heap remains as the overflow tier for what
// the wheel declines: events before the cursor tick, beyond the
// ~2^32-tick horizon, or at non-finite times.  An event due inside the
// cursor tick itself (a completion a few microseconds out) goes into
// the buffer that tick is being drained from, which is sorted latest
// first and popped from the back: the insert shifts only the entries
// due before it.  Popping merges the
// two tiers by exact (time, seq), so the firing order — and therefore
// every golden digest — is bit-identical to the heap-only engine.  Setting
// the environment variable CORELITE_NO_WHEEL (to any value) routes all
// traffic to the heap.
//
// Engineering notes (the million-event hot path):
//   - Callbacks are SmallFunction: captures up to 40 bytes live inline,
//     so scheduling a link-completion closure touches no heap.  A larger
//     capture fails to compile rather than allocate, and a slot
//     (callback + handle state) is exactly one 64-byte cache line.
//   - `schedule_detached()` skips the EventHandle control block
//     entirely; `schedule()` materializes one only because the caller
//     keeps the handle.
//   - Callbacks live in recycled slots; the wheel and heap both hold
//     16-byte (time, seq|flags|slot) keys, so filing moves two words
//     instead of a fat struct with a closure inside.
//   - The key carries a "cancellable" bit: skipping dead events only
//     inspects slot state for events that actually own a handle, so the
//     detached fast path never touches the slot array while peeking.
//   - The hot methods are defined inline here; the tier merge and the
//     schedule/fire pair inline into Simulator::run_until and the
//     forwarding plane.
//   - Two prefetch stages hide the cold reads of a 100k-flow run: on
//     collect, a multi-entry wheel slot prefetches the slot line of each
//     entry after the first; on fire, wheel entry i+1's sim::Hinted
//     address is prefetched before entry i runs.  Order is untouched.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "sim/hotpath.h"
#include "sim/small_function.h"
#include "sim/timer_wheel.h"
#include "sim/units.h"

namespace corelite::sim {

/// Handle to a scheduled event; allows cancellation and liveness queries.
/// Copying the handle shares the underlying event.  A default-constructed
/// handle refers to no event.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevent the event from firing.  Idempotent; safe on empty handles.
  void cancel() {
    if (state_) state_->cancelled = true;
  }

  /// True if the event is scheduled and has neither fired nor been cancelled.
  [[nodiscard]] bool pending() const { return state_ && !state_->cancelled && !state_->fired; }

 private:
  friend class EventQueue;
  struct State {
    bool cancelled = false;
    bool fired = false;
  };
  explicit EventHandle(std::shared_ptr<State> s) : state_{std::move(s)} {}
  std::shared_ptr<State> state_;
};

/// Two-tier timed-callback queue (timing wheel + overflow min-heap).
/// Not thread-safe: the simulation is single-threaded by design
/// (determinism beats parallelism for reproducible network experiments).
class EventQueue {
 public:
  /// Inline capacity covers the forwarding-plane closures (a `this`
  /// pointer, a pooled packet handle and a couple of scalars) and makes
  /// a slot exactly one 64-byte cache line.
  using Callback = SmallFunction<void(), 40>;

  EventQueue() : wheel_enabled_{std::getenv("CORELITE_NO_WHEEL") == nullptr} {}

  /// Schedule `f` to fire at absolute time `at`.  Allocates the
  /// handle's shared control block — use schedule_detached() when the
  /// handle would be discarded.
  template <class F>
  EventHandle schedule(SimTime at, F&& f) {
    const std::uint32_t slot = emplace_slot(std::forward<F>(f));
    Slot& s = slots_[slot];
    s.state = std::make_shared<EventHandle::State>();
    EventHandle handle{s.state};
    push_entry(at.sec(), slot, /*cancellable=*/true);
    return handle;
  }

  /// Fire-and-forget fast path: no handle, no control block, no way to
  /// cancel.  Shares the sequence counter with schedule(), so the
  /// (time, seq) firing order is identical however events are mixed.
  /// Templated so the closure is constructed directly in its storage
  /// slot — no relocation through by-value parameters on the way in.
  template <class F>
  void schedule_detached(SimTime at, F&& f) {
    push_entry(at.sec(), emplace_slot(std::forward<F>(f)), /*cancellable=*/false);
  }

  /// True if no live events remain.  May discard dead (cancelled) entries.
  [[nodiscard]] bool empty() const { return front_entry().entry == nullptr; }

  /// Fire time of the earliest live event; SimTime::infinite() if none.
  [[nodiscard]] SimTime next_time() const {
    const Front f = front_entry();
    return f.entry == nullptr ? SimTime::infinite() : SimTime::seconds(f.entry->at);
  }

  /// Pop and run the earliest live event (even one at t = infinity).
  /// Returns its fire time.  Precondition: !empty().
  SimTime run_next() {
    const Front f = front_entry();
    assert(f.entry != nullptr && "run_next on an empty event queue");
    return pop_and_fire(f, [](SimTime) {});
  }

  /// Single-peek run step: if the earliest live event fires at a finite
  /// time <= `deadline`, invoke `set_clock` with that time, pop and run
  /// the event, and return its fire time; otherwise leave the queue
  /// untouched and return SimTime::infinite().  Replaces the
  /// next_time()/run_next() pair in Simulator's run loops — one dead
  /// sweep and one front load per event instead of two.
  template <class SetClock>
  SimTime run_next_until(SimTime deadline, SetClock&& set_clock) {
    const Front f = front_entry();
    if (f.entry == nullptr) return SimTime::infinite();
    const double at = f.entry->at;
    if (at > deadline.sec() || !std::isfinite(at)) return SimTime::infinite();
    return pop_and_fire(f, std::forward<SetClock>(set_clock));
  }

  /// Number of events ever scheduled (including cancelled ones).
  [[nodiscard]] std::uint64_t scheduled_count() const { return next_seq_; }

  /// Drop every pending event.  Outstanding handles observe their events
  /// as cancelled.
  void clear();

  /// Slots ever materialized (high-water mark of concurrently pending
  /// events); exposed for the allocation-reuse benchmarks and tests.
  [[nodiscard]] std::size_t slot_capacity() const { return slots_.size(); }

  /// True when the timing-wheel tier is active (CORELITE_NO_WHEEL unset).
  [[nodiscard]] bool wheel_enabled() const { return wheel_enabled_; }

 private:
  // Both tiers file two-word entries: the fire time and a packed
  // (sequence << kSeqShift) | cancellable | slot key.  The sequence
  // occupies the high bits, so comparing keys compares sequences — the
  // flag and slot never influence ordering (sequences are unique).  The
  // cancellable bit sits between: peeking skips the slot-state load for
  // detached events, which can never be cancelled.  39 bits of sequence
  // (~5*10^11 events) and 24 bits of slot (~16M concurrently pending
  // events) are far beyond any run we do.
  using Entry = WheelEntry;
  struct Slot {
    Callback cb;
    std::shared_ptr<EventHandle::State> state;  ///< null for detached events
  };
  static_assert(sizeof(Slot) == 64, "an event slot is one 64-byte cache line");

  /// The surfaced earliest live entry and which tier it came from.
  struct Front {
    const Entry* entry = nullptr;  ///< null when the queue is drained
    bool from_wheel = false;       ///< true: wheel buffer; false: heap root
  };

  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kCancellableBit = std::uint64_t{1} << kSlotBits;
  static constexpr unsigned kSeqShift = kSlotBits + 1;

  static bool earlier(const Entry& a, const Entry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.key < b.key;
  }
  /// The drain buffer's order: latest first, so the next due is at the back.
  static bool later(const Entry& a, const Entry& b) { return earlier(b, a); }

  /// Surface the earliest live entry across both tiers, lazily
  /// discarding cancelled entries from the wheel buffer's back and the
  /// heap root.  Refills the wheel buffer (sorted latest first by exact
  /// (time, seq)) from the next occupied slot when it runs dry.
  Front front_entry() const {
    for (;;) {
      if (!buffer_.empty()) {
        const Entry& e = buffer_.back();
        if ((e.key & kCancellableBit) != 0 && recycle_if_cancelled(e)) {
          buffer_.pop_back();
          continue;
        }
        break;
      }
      if (wheel_.count() == 0) break;
      wheel_.collect_next(buffer_);
      if (buffer_.size() > 1) {
        std::sort(buffer_.begin(), buffer_.end(), later);
        // Prefetch stage 1: the back entry fires now and reads its slot
        // anyway; start loading the slot line of every other one, next
        // due first.
        for (std::size_t i = buffer_.size() - 1; i-- > 0;) {
          __builtin_prefetch(&slots_[buffer_[i].key & kSlotMask]);
        }
      }
    }
    drop_dead();
    if (buffer_.empty()) return heap_.empty() ? Front{} : Front{&heap_[0], false};
    if (heap_.empty() || earlier(buffer_.back(), heap_[0])) return Front{&buffer_.back(), true};
    return Front{&heap_[0], false};
  }

  /// Pop the surfaced entry (must be live) and fire its callback.
  /// `set_clock` runs after the tiers are consistent but before the
  /// callback, so the owner can advance its clock to the fire time the
  /// callback observes.
  template <class SetClock>
  SimTime pop_and_fire(Front f, SetClock&& set_clock) {
    const Entry top = *f.entry;
    if (f.from_wheel) {
      buffer_.pop_back();
      // Prefetch stage 2: stage 1 cached the next entry's slot, so its
      // hint is cheap to read; fetch the hinted line while this one runs.
      if (!buffer_.empty()) {
        if (const void* h = slots_[buffer_.back().key & kSlotMask].cb.hint()) {
          __builtin_prefetch(h);
        }
      }
    } else {
      remove_root();
    }
    const auto slot = static_cast<std::uint32_t>(top.key & kSlotMask);
    Slot& s = slots_[slot];
    // Move the callback out before invoking: the callback may schedule
    // new events, which can grow the slot vector and invalidate `s`.
    Callback cb = std::move(s.cb);
    if ((top.key & kCancellableBit) != 0) {
      s.state->fired = true;
      s.state.reset();
    }
    free_slots_.push_back(slot);
    const SimTime t = SimTime::seconds(top.at);
    set_clock(t);
    // consume() fuses invoke + destroy into one dispatch — one indirect
    // call per event instead of two for non-trivial closures.
    cb.consume();
    return t;
  }

  /// Build `f` directly in a free slot.  A closure too big to store
  /// inline fails to compile, so no event ever allocates its callback.
  template <class F>
  std::uint32_t emplace_slot(F&& f) {
    static_assert(Callback::kFitsInline<std::decay_t<F>>,
                  "event closure exceeds the Callback's inline capacity");
    const std::uint32_t slot = acquire_slot();
    slots_[slot].cb.emplace(std::forward<F>(f));
    return slot;
  }

  std::uint32_t acquire_slot() {
    if (!free_slots_.empty()) {
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    assert(slots_.size() < kSlotMask && "too many concurrently pending events");
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  /// Tier selector: file short-horizon events in the wheel, and events
  /// due inside the tick being drained in the drain buffer at their
  /// exact (time, seq) place.  Everything else (past ticks, beyond
  /// horizon, non-finite, or CORELITE_NO_WHEEL) goes to the overflow heap.
  void push_entry(double at, std::uint32_t slot, bool cancellable) {
    const std::uint64_t seq = next_seq_++;
    assert(seq < (std::uint64_t{1} << (64 - kSeqShift)) && "event sequence space exhausted");
    const std::uint64_t key = (seq << kSeqShift) | (cancellable ? kCancellableBit : 0) | slot;
    if (wheel_enabled_) {
      if (wheel_.try_insert(at, key)) {
        ++hotpath_counters().wheel_inserts;
        return;
      }
      // The buffer holds the cursor tick's entries; every entry left in
      // the wheel is due at a later tick, so the buffer stays in front.
      if (wheel_.in_cursor_tick(at)) {
        // Latest first: the new entry goes just ahead of the entries due
        // before it, and only those shift.
        const Entry e{at, key};
        buffer_.insert(std::upper_bound(buffer_.begin(), buffer_.end(), e, later), e);
        ++hotpath_counters().wheel_inserts;
        return;
      }
    }
    ++hotpath_counters().heap_inserts;
    heap_.push_back(Entry{at, key});
    sift_up(heap_.size() - 1);
  }

  /// Release a cancelled entry's storage.  Returns false if it is live.
  bool recycle_if_cancelled(const Entry& e) const {
    const auto slot = static_cast<std::uint32_t>(e.key & kSlotMask);
    Slot& s = slots_[slot];
    if (!s.state->cancelled) return false;
    s.cb.reset();
    s.state.reset();
    free_slots_.push_back(slot);
    return true;
  }

  void sift_up(std::size_t i) const {
    const Entry e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!earlier(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void sift_down(std::size_t i) const {
    const Entry e = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = first + 4 < n ? first + 4 : n;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (earlier(heap_[c], heap_[best])) best = c;
      }
      if (!earlier(heap_[best], e)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
  }

  void remove_root() const {
    heap_[0] = heap_.back();
    heap_.pop_back();
    if (heap_.size() > 1) sift_down(0);
  }

  /// Pop cancelled entries off the heap root.  Detached events are live
  /// by construction, so the common case is a single bit test.
  void drop_dead() const {
    while (!heap_.empty()) {
      const std::uint64_t key = heap_[0].key;
      if ((key & kCancellableBit) == 0) return;
      if (!recycle_if_cancelled(heap_[0])) return;
      remove_root();
    }
  }

  // mutable: empty()/next_time() lazily discard cancelled entries, and
  // surfacing the wheel front collects its next occupied slot.
  mutable std::vector<Entry> heap_;       ///< 4-ary min-heap: overflow tier
  mutable TimerWheel wheel_;              ///< primary tier (short horizon)
  mutable std::vector<Entry> buffer_;     ///< current wheel slot, latest first
  mutable std::vector<Slot> slots_;       ///< callback storage, recycled
  mutable std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  bool wheel_enabled_;
};

}  // namespace corelite::sim
