// The discrete-event simulation kernel.
//
// A Simulator owns the virtual clock, the event queue and the random
// source.  Components schedule callbacks against it; `run_until`
// advances virtual time by firing events in timestamp order.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/units.h"

namespace corelite::sim {

/// Controls a repeating timer created by Simulator::every().
/// Cancelling stops all future firings; safe to copy and to call on an
/// empty handle.
class PeriodicHandle {
 public:
  PeriodicHandle() = default;

  void cancel() {
    if (control_) control_->cancelled = true;
  }
  [[nodiscard]] bool active() const { return control_ && !control_->cancelled; }

 private:
  friend class Simulator;
  struct Control {
    bool cancelled = false;
  };
  explicit PeriodicHandle(std::shared_ptr<Control> c) : control_{std::move(c)} {}
  std::shared_ptr<Control> control_;
};

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 0x5eedc0de) : rng_{seed} {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `f` at absolute virtual time `at` (must not be in the past).
  template <class F>
  EventHandle at(SimTime at, F&& f) {
    assert(at >= now_ && "cannot schedule an event in the past");
    return queue_.schedule(at, std::forward<F>(f));
  }

  /// Schedule `f` after a relative delay from now.
  template <class F>
  EventHandle after(TimeDelta delay, F&& f) {
    assert(delay >= TimeDelta::zero());
    return at(now_ + delay, std::forward<F>(f));
  }

  /// Fire-and-forget variants: no handle, no cancellation, and no
  /// per-event control-block allocation.  The forwarding plane uses
  /// these for its per-hop completion events; templated + inline so the
  /// closure is constructed directly in its queue slot.
  template <class F>
  void at_detached(SimTime at, F&& f) {
    assert(at >= now_ && "cannot schedule an event in the past");
    queue_.schedule_detached(at, std::forward<F>(f));
  }
  template <class F>
  void after_detached(TimeDelta delay, F&& f) {
    assert(delay >= TimeDelta::zero());
    at_detached(now_ + delay, std::forward<F>(f));
  }

  /// Schedule `cb` every `period`, until the returned handle is
  /// cancelled.  The first firing happens after `first_after` (defaults
  /// to one period); passing a randomized phase here desynchronizes
  /// periodic components, as real distributed timers are.
  ///
  /// Templated on the callable: each tick invokes the body directly
  /// through one shared state block — no std::function dispatch and no
  /// weak_ptr lock on the (per-epoch, per-edge-router) tick path.
  template <class F>
  PeriodicHandle every(TimeDelta period, F cb, TimeDelta first_after = TimeDelta::infinite()) {
    assert(period > TimeDelta::zero());
    if (!first_after.is_finite()) first_after = period;
    auto state = std::make_shared<PeriodicState<F>>(std::move(cb));
    PeriodicHandle handle{std::shared_ptr<PeriodicHandle::Control>{state, state.get()}};
    arm_periodic(std::move(state), period, now_ + first_after);
    return handle;
  }

  /// Run events until the queue drains or virtual time would pass `deadline`.
  /// The clock is left at min(deadline, time of last event) — i.e. it
  /// advances to `deadline` even if the queue drained earlier.
  void run_until(SimTime deadline);

  /// Run until the event queue is empty.
  void run() { run_until(SimTime::infinite()); }

  /// Request that the current run stops after the in-flight event returns.
  void stop() { stopped_ = true; }

  /// Experiment-time view used by the fluid fast-forward engine.  The
  /// engine clock (now()) stays continuous across a fast-forward; the
  /// skipped span accumulates here, so exp_now() = now() + exp_offset()
  /// is the position on the experiment's time axis.  With the offset at
  /// zero (fluid off) exp_now() is exactly now() — adding +0.0 leaves
  /// every double bit pattern this clock produces unchanged.
  [[nodiscard]] SimTime exp_now() const { return now_ + exp_offset_; }
  [[nodiscard]] TimeDelta exp_offset() const { return exp_offset_; }
  void advance_exp_offset(TimeDelta skipped) {
    assert(skipped >= TimeDelta::zero() && "experiment time cannot run backwards");
    exp_offset_ += skipped;
  }

  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Keep `resource` alive until after the event queue is destroyed.
  /// Components whose storage is referenced from pending callbacks
  /// (e.g. the network's packet pool) register themselves here, which
  /// lets the callbacks hold raw pointers instead of paying refcount
  /// traffic on the hot path.
  void retain(std::shared_ptr<void> resource) { retained_.push_back(std::move(resource)); }

 private:
  /// Cancellation flag + user body for one every() chain.  The pending
  /// tick's closure is the only owner; cancelling orphans the chain at
  /// its next firing and the whole block is reclaimed.
  template <class F>
  struct PeriodicState : PeriodicHandle::Control {
    explicit PeriodicState(F b) : body(std::move(b)) {}
    F body;
  };

  /// Each tick MOVES the state's shared_ptr from the dying closure into
  /// the next one (the closure outlives its own invocation, so moving a
  /// capture out mid-call is safe) — zero refcount traffic on the
  /// epoch-tick path instead of an atomic pair per tick.
  template <class F>
  void arm_periodic(std::shared_ptr<PeriodicState<F>> state, TimeDelta period, SimTime at) {
    queue_.schedule_detached(at, [this, state = std::move(state), period]() mutable {
      if (state->cancelled) return;
      state->body();
      if (state->cancelled) return;
      arm_periodic(std::move(state), period, now_ + period);
    });
  }

  // Declared before queue_: members are destroyed in reverse order, so
  // the retained resources outlive every pending callback.
  std::vector<std::shared_ptr<void>> retained_;
  EventQueue queue_;
  Rng rng_;
  SimTime now_ = SimTime::zero();
  TimeDelta exp_offset_ = TimeDelta::zero();  ///< experiment time skipped by fast-forwards
  std::uint64_t processed_ = 0;
  bool stopped_ = false;
};

}  // namespace corelite::sim
