// Per-flow edge state shared by the Corelite and CSFQ edge routers.
//
// In the paper's architecture the edges hold all per-flow state and the
// cores hold none, so at scale the edge's flow record is the whole
// per-flow memory cost.  The record (EdgeFlow and what an edge adds to
// it) keeps only what a flow's own packets and epochs read: its id,
// egress and weight, its rate controller, its activity windows (one
// inline, more on the heap) and the active-set position.  What the
// edge already knows (its own node) is not copied, and what few flows
// carry (a minimum-rate contract, a flood rate, transit shaping) sits
// in the edge's side list behind EdgeFlow::extra.  A Corelite record is
// 120 B and a CSFQ one 120 B: four to a 512-B deque block.
//
// FlowTable keeps, once for both edges:
//   - the records, in one address-stable slab: emission and lifecycle
//     events capture Flow&, and std::deque never moves an element on
//     emplace_back, while allocating records a block at a time;
//   - an id index sized by this edge's own flows (open addressing over
//     slab positions, at most half full), so a lookup is O(1) and the
//     index costs at most 32 B per flow (128 B minimum) however many
//     edges share the global id space;
//   - the set of active flows with O(1) swap-removal, so per-epoch
//     bookkeeping is O(active);
//   - the lazy activity-window cursor.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "net/flow.h"
#include "net/network.h"
#include "net/types.h"
#include "qos/rate_controller.h"
#include "sim/fluid/warp.h"

namespace corelite::qos {

/// The fields every edge flow record starts with.
struct EdgeFlow {
  static constexpr std::uint32_t kInactive = UINT32_MAX;
  static constexpr std::uint32_t kNoExtra = UINT32_MAX;

  EdgeFlow(const net::FlowSpec& s, const RateAdaptConfig& adapt, std::uint32_t extra_index)
      : id{s.id},
        egress{s.egress},
        weight{s.weight},
        ctrl{adapt, s.min_rate_pps},
        windows{s.active},
        extra{extra_index} {}

  [[nodiscard]] bool active() const { return active_slot != kInactive; }

  net::FlowId id;
  net::NodeId egress;
  double weight;
  RateController ctrl;
  net::ActivityWindows windows;
  /// Position in the table's active set; kInactive while stopped.
  std::uint32_t active_slot = kInactive;
  /// Emission events are fire-and-forget (no per-event control block);
  /// stopping the flow bumps this generation so in-flight events of the
  /// old chain turn into no-ops.
  std::uint32_t emit_gen = 0;
  /// The flow's entry in its edge's list of rarely used attributes, or
  /// kNoExtra for a flow with none.
  std::uint32_t extra;
};

/// `Flow` derives from EdgeFlow.  At each activity-window transition the
/// table calls `owner.start_flow(Flow&)` or `owner.stop_flow(Flow&)`.
template <class Flow, class Owner>
class FlowTable {
 public:
  FlowTable(Owner& owner, net::Network& network, net::NodeId node)
      : owner_{owner}, net_{network}, node_{node} {}

  FlowTable(const FlowTable&) = delete;
  FlowTable& operator=(const FlowTable&) = delete;

  /// Fluid fast-forward: route window transitions through the
  /// experiment-time warp registry (see CoreliteEdgeRouter::
  /// set_fluid_warp).  Must be set before any add.
  void set_fluid_warp(sim::fluid::TimeWarp* warp) { warp_ = warp; }

  /// Construct a record in the slab, index it by id and schedule its
  /// first activity window.  The id must be valid (FlowSpec::valid()).
  template <class... Args>
  Flow& add(Args&&... args) {
    Flow& fs = flows_.emplace_back(std::forward<Args>(args)...);
    assert(fs.id != net::kInvalidFlow && "kInvalidFlow marks empty index slots");
    assert(find(fs.id) == kNone && "duplicate flow id");
    if (2 * flows_.size() > slots_.size()) rehash(std::max<std::size_t>(16, 2 * slots_.size()));
    insert({fs.id, static_cast<std::uint32_t>(flows_.size() - 1)});
    schedule_window(fs, 0);
    return fs;
  }

  /// O(1) id lookup; nullptr for flows this edge does not carry.
  [[nodiscard]] Flow* lookup(net::FlowId id) {
    const std::uint32_t rec = find(id);
    return rec == kNone ? nullptr : &flows_[rec];
  }
  [[nodiscard]] const Flow* lookup(net::FlowId id) const {
    const std::uint32_t rec = find(id);
    return rec == kNone ? nullptr : &flows_[rec];
  }

  /// Bytes held by the id index (not the records).
  [[nodiscard]] std::size_t index_bytes() const { return slots_.capacity() * sizeof(Slot); }

  [[nodiscard]] const std::vector<Flow*>& active() const { return active_; }

  /// Call `f(Flow&)` on every active flow in active() order, prefetching
  /// every line of the record kAhead positions on: a 100k-flow epoch
  /// sweep is bound by cold record reads.  `f` must not (de)activate.
  template <class F>
  void for_each_active(F&& f) {
    constexpr std::size_t kAhead = 16;
    for (std::size_t i = 0; i < active_.size(); ++i) {
      if (i + kAhead < active_.size()) {
        const auto* rec = reinterpret_cast<const char*>(active_[i + kAhead]);
        for (std::size_t off = 0; off < sizeof(Flow); off += 64) __builtin_prefetch(rec + off);
        __builtin_prefetch(rec + sizeof(Flow) - 1);  // the last line, if straddled
      }
      f(*active_[i]);
    }
  }

  /// Join the active set; false if the flow already was active.
  bool activate(Flow& fs) {
    if (fs.active()) return false;
    fs.active_slot = static_cast<std::uint32_t>(active_.size());
    active_.push_back(&fs);
    return true;
  }

  /// Leave the active set and orphan the flow's in-flight emission
  /// events; false if the flow was not active.
  bool deactivate(Flow& fs) {
    if (!fs.active()) return false;
    Flow* last = active_.back();
    active_[fs.active_slot] = last;
    last->active_slot = fs.active_slot;
    active_.pop_back();
    fs.active_slot = EdgeFlow::kInactive;
    ++fs.emit_gen;
    return true;
  }

 private:
  /// An index slot: a flow id and its record's position in the slab;
  /// kInvalidFlow marks an empty slot.
  struct Slot {
    net::FlowId id = net::kInvalidFlow;
    std::uint32_t rec = 0;
  };
  static constexpr std::uint32_t kNone = UINT32_MAX;

  /// Home slot: Fibonacci hashing spreads an edge's (strided, clustered)
  /// share of the global ids over the power-of-two table.
  [[nodiscard]] std::size_t home(net::FlowId id) const {
    return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  /// Linear probing; the table is at most half full, so a run of
  /// occupied slots always ends at an empty one.
  [[nodiscard]] std::uint32_t find(net::FlowId id) const {
    if (slots_.empty()) return kNone;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(id);; i = (i + 1) & mask) {
      if (slots_[i].id == net::kInvalidFlow) return kNone;
      if (slots_[i].id == id) return slots_[i].rec;
    }
  }

  void insert(Slot s) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(s.id);
    while (slots_[i].id != net::kInvalidFlow) i = (i + 1) & mask;
    slots_[i] = s;
  }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    shift_ = 64 - std::countr_zero(capacity);
    for (const Slot& s : old) {
      if (s.id != net::kInvalidFlow) insert(s);
    }
  }

  // Lazy lifecycle cursor: only the next transition of each flow sits in
  // the event queue (a 100k-flow churn population would otherwise park
  // two events per window up front).  Each window still costs exactly
  // one start and one finite-stop event, matching the eager schedule.
  void schedule_window(Flow& fs, std::size_t window) {
    auto& sim = net_.local_sim(node_);
    const net::ActivityWindows& windows = fs.windows;
    if (warp_ != nullptr) {
      // Fluid fast-forward: transitions are pinned to absolute
      // *experiment* time in the warp registry, whose heap top also caps
      // how far a fast-forward jump may reach.
      while (window < windows.size() && windows[window].stop <= sim.exp_now()) ++window;
      if (window >= windows.size()) return;
      warp_->at_exp(std::max(windows[window].start, sim.exp_now()), [this, &fs, window] {
        owner_.start_flow(fs);
        const sim::SimTime stop = fs.windows[window].stop;
        if (stop < sim::SimTime::infinite()) {
          warp_->at_exp(stop, [this, &fs, window] {
            owner_.stop_flow(fs);
            schedule_window(fs, window + 1);
          });
        }
      });
      return;
    }
    while (window < windows.size() && windows[window].stop <= sim.now()) {
      ++window;  // window already wholly in the past
    }
    if (window >= windows.size()) return;
    sim.at_detached(std::max(windows[window].start, sim.now()), [this, &fs, window] {
      owner_.start_flow(fs);
      const sim::SimTime stop = fs.windows[window].stop;
      if (stop < sim::SimTime::infinite()) {
        net_.local_sim(node_).at_detached(stop, [this, &fs, window] {
          owner_.stop_flow(fs);
          schedule_window(fs, window + 1);
        });
      }
    });
  }

  Owner& owner_;
  net::Network& net_;
  net::NodeId node_;
  sim::fluid::TimeWarp* warp_ = nullptr;
  std::deque<Flow> flows_;
  std::vector<Slot> slots_;  ///< power-of-two size, at most half full
  int shift_ = 64;           ///< 64 - log2(slots_.size())
  std::vector<Flow*> active_;
};

}  // namespace corelite::qos
