// Hierarchical timing wheel for the short-horizon event classes.
//
// The event population of a packet-level run is dominated by link
// transmit completions and paced emission timers: near-monotonic,
// microseconds-to-milliseconds ahead of the clock.  A comparison heap
// pays O(log n) pointer-chasing per event for that traffic; a timing
// wheel pays O(1) array writes (the `hrtimer`/`sch_fq` pattern).  This
// wheel is the primary tier of EventQueue's dispatch structure; the
// 4-ary heap stays behind it as the overflow tier for whatever the
// wheel declines (see try_insert).
//
// Geometry: kLevels levels of kSlots slots; a level-0 slot is one tick
// (2^-17 s ~ 7.6 us) wide and each level up widens slots by 2^8, so
// level L slot widths are the power-of-two 2^(8L) ticks and four levels
// cover ~2^32 ticks (~9 hours) of horizon.  An entry is filed at the
// level where its tick first diverges from the cursor's bit path
// (bit_width(tick ^ cursor) — the classic hierarchical rule), which
// guarantees its slot index at that level is strictly ahead of the
// cursor: no slot ever mixes entries from different wheel laps, so
// occupancy bitmaps are unambiguous and no modular-lap arithmetic is
// needed anywhere.
//
// Lazy cascade: entries sit at their insertion level until the cursor
// enters their slot; collect_next() then re-files them one or more
// levels down (cost: one block write per entry per level crossed, at
// most kLevels-1 times in an entry's life, typically once).  Entries
// never move until the wheel front actually reaches them, so cancelled
// events simply expire in place (EventQueue filters them on pop, same
// lazy discipline as the heap).
//
// Exactness: the wheel quantizes only the *bucketing*; entries carry
// their full (double time, sequence key) and EventQueue sorts each
// collected slot and merges it against the heap root, so the global
// firing order is bit-identical to a heap-only engine — the golden
// determinism tests pin this.
//
// Storage: each slot is a BlockFifo chain of 16-entry blocks drawn from
// one free list the wheel owns, which keeps at most kFreeBlocksKept
// spares.  A slot holds its entries plus at most one partly used block,
// so the wheel's footprint follows the pending count rather than each
// slot's historical peak.  An emptied level-0 slot keeps its block for
// the next lap; an upper-level slot hands its blocks back as it
// cascades, since it is revisited only a lap later.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/block_fifo.h"
#include "sim/hotpath.h"

namespace corelite::sim {

/// One scheduled event as the dispatch tiers see it: the exact fire
/// time and the packed (sequence | flags | slot) key EventQueue orders
/// ties by.  16 bytes, trivially copyable.
struct WheelEntry {
  double at;
  std::uint64_t key;
};

class TimerWheel {
 public:
  static constexpr unsigned kLevelBits = 8;             ///< 256 slots per level
  static constexpr std::size_t kSlots = std::size_t{1} << kLevelBits;
  static constexpr unsigned kLevels = 4;
  /// Level-0 tick width is 2^-17 s (~7.6 us): fine enough that a slot
  /// rarely holds more than a handful of same-tick events, coarse
  /// enough that a 1 ms propagation delay spans only ~131 ticks.
  static constexpr double kTicksPerSecond = 131072.0;  // 2^17
  /// Spare blocks the free list keeps (33 KB of 264-B blocks): a burst
  /// beyond that goes back to the allocator as its slots drain.
  static constexpr std::size_t kFreeBlocksKept = 128;

  TimerWheel() {
    for (Level& lv : levels_) {
      for (Slot& slot : lv.slots) slot.use_pool(pool_);
    }
  }

  /// Entries currently filed in the wheel (collected ones excluded).
  [[nodiscard]] std::size_t count() const { return count_; }

  /// Slots (over all levels) holding at least one entry.
  [[nodiscard]] std::size_t occupied_slots() const {
    std::size_t n = 0;
    for (const Level& lv : levels_) {
      for (const std::uint64_t w : lv.occupied) n += static_cast<std::size_t>(std::popcount(w));
    }
    return n;
  }

  /// Heap bytes the wheel's blocks take: every slot's chain and the
  /// free list's spares.
  [[nodiscard]] std::size_t stored_bytes() const {
    std::size_t blocks = pool_.size();
    for (const Level& lv : levels_) {
      for (const Slot& slot : lv.slots) blocks += slot.blocks_held();
    }
    return blocks * sizeof(Slot::Block);
  }

  /// File an entry, or return false: non-finite or absurdly large times,
  /// times at or before the cursor tick (its slot is already being
  /// drained; see in_cursor_tick), and times beyond the wheel horizon.
  bool try_insert(double at, std::uint64_t key) {
    const double ticks = at * kTicksPerSecond;
    if (!(ticks >= 0.0) || ticks >= kMaxTick) return false;  // NaN/inf/too far
    const std::uint64_t tick = static_cast<std::uint64_t>(ticks);
    if (tick <= cursor_) return false;
    const unsigned level =
        (static_cast<unsigned>(std::bit_width(tick ^ cursor_)) - 1u) / kLevelBits;
    if (level >= kLevels) return false;  // beyond the top-level window
    place(level, tick, WheelEntry{at, key});
    ++count_;
    return true;
  }

  /// True if `at` falls in the tick the cursor sits on — the tick whose
  /// entries the last collect_next() handed out.  try_insert() declines
  /// such times; the caller files them with that tick's entries.
  [[nodiscard]] bool in_cursor_tick(double at) const {
    const double ticks = at * kTicksPerSecond;
    return ticks >= 0.0 && ticks < kMaxTick && static_cast<std::uint64_t>(ticks) == cursor_;
  }

  /// Advance the cursor to the earliest occupied level-0 tick, cascading
  /// higher-level slots as the cursor enters them, and append that
  /// tick's entries to `out` (unsorted — the caller orders by full
  /// (time, seq)).  The slot's blocks go back to the free list.
  /// Precondition: count() > 0.
  void collect_next(std::vector<WheelEntry>& out) {
    assert(count_ > 0 && "collect_next on an empty wheel");
    for (;;) {
      // Nearest occupied level-0 slot in the cursor's current window.
      // Scanned from the cursor's own index inclusive: cascades file
      // tick == cursor entries right there.
      Level& l0 = levels_[0];
      const int j0 = l0.entries == 0 ? -1 : scan_from(l0.occupied, cursor_ & (kSlots - 1));
      if (j0 >= 0) {
        cursor_ = (cursor_ & ~kIndexMask) | static_cast<std::uint64_t>(j0);
        Slot& slot = l0.slots[static_cast<std::size_t>(j0)];
        count_ -= slot.size();
        l0.entries -= slot.size();
        slot.consume([&out](WheelEntry&& e) { out.push_back(e); });
        clear_bit(l0.occupied, static_cast<std::size_t>(j0));
        return;
      }
      // Level-0 window exhausted: enter the nearest occupied slot of the
      // lowest level that has one ahead, and spill it downward.  Empty
      // levels (the common case above level 0) are skipped by their
      // entry count before any bitmap word is touched.
      unsigned level = 1;
      for (; level < kLevels; ++level) {
        Level& lv = levels_[level];
        if (lv.entries == 0) continue;
        const unsigned shift = kLevelBits * level;
        const std::size_t cur = (cursor_ >> shift) & (kSlots - 1);
        const int j = scan_from(lv.occupied, cur + 1);
        if (j < 0) continue;  // this window exhausted too — go up a level
        // Align the cursor to the slot's first tick, then re-file its
        // entries at the level where they now diverge from the cursor.
        cursor_ = (((cursor_ >> shift) & ~kIndexMask) | static_cast<std::uint64_t>(j))
                  << shift;
        // Each source block goes back to the free list as it empties, so
        // the destination slots refill from it: the cascade moves
        // entries block to block.
        Slot& slot = lv.slots[static_cast<std::size_t>(j)];
        clear_bit(lv.occupied, static_cast<std::size_t>(j));
        lv.entries -= slot.size();
        hotpath_counters().wheel_cascades += slot.size();
        slot.consume([this](WheelEntry&& e) {
          const std::uint64_t tick = static_cast<std::uint64_t>(e.at * kTicksPerSecond);
          const std::uint64_t diverged = tick ^ cursor_;
          const unsigned nl =
              diverged == 0
                  ? 0u
                  : (static_cast<unsigned>(std::bit_width(diverged)) - 1u) / kLevelBits;
          place(nl, tick, e);
        });
        slot.trim();  // revisited only a lap later
        break;  // rescan level 0, which the cascade just populated
      }
      assert(level < kLevels && "count_ > 0 but no occupied slot found");
    }
  }

  /// Remove every entry (all levels) into `out`, in no particular
  /// order.  Used by EventQueue::clear(); the cursor keeps its place.
  void drain_all(std::vector<WheelEntry>& out) {
    for (Level& lv : levels_) {
      for (Slot& slot : lv.slots) {
        slot.consume([&out](WheelEntry&& e) { out.push_back(e); });
        slot.trim();
      }
      for (std::uint64_t& w : lv.occupied) w = 0;
      lv.entries = 0;
    }
    count_ = 0;
  }

 private:
  static constexpr std::uint64_t kIndexMask = kSlots - 1;
  /// Ticks must survive the double->uint64 cast; anything this far out
  /// (well past the 2^32-tick horizon) overflows to the heap anyway.
  static constexpr double kMaxTick = 9.0e18;
  using Slot = BlockFifo<WheelEntry>;

  struct Level {
    std::array<Slot, kSlots> slots;
    std::uint64_t occupied[kSlots / 64] = {};
    /// Entries filed at this level.  Steady-state traffic concentrates
    /// in level 0, so the upper levels are empty most of the time; the
    /// count lets collect_next() skip their occupancy scans outright
    /// instead of walking four empty bitmap words per level per call.
    std::size_t entries = 0;
  };

  void place(unsigned level, std::uint64_t tick, WheelEntry e) {
    const std::size_t idx = (tick >> (kLevelBits * level)) & kIndexMask;
    Level& lv = levels_[level];
    lv.slots[idx].push_back(std::move(e));
    lv.occupied[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    ++lv.entries;
  }

  static void clear_bit(std::uint64_t* words, std::size_t idx) {
    words[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
  }

  /// Index of the first set bit at or after `from`, or -1.
  static int scan_from(const std::uint64_t* words, std::size_t from) {
    if (from >= kSlots) return -1;
    std::size_t w = from >> 6;
    std::uint64_t bits = words[w] & (~std::uint64_t{0} << (from & 63));
    for (;;) {
      if (bits != 0) {
        return static_cast<int>((w << 6) + static_cast<std::size_t>(std::countr_zero(bits)));
      }
      if (++w == kSlots / 64) return -1;
      bits = words[w];
    }
  }

  // The free list is declared first: it outlives the slots, which hand
  // their blocks back to it when they are destroyed.
  BlockPool<WheelEntry> pool_{kFreeBlocksKept};
  std::array<Level, kLevels> levels_;
  std::uint64_t cursor_ = 0;  ///< level-0 tick the wheel front sits on
  std::size_t count_ = 0;
};

}  // namespace corelite::sim
