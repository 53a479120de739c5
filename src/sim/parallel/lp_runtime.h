// Conservative parallel discrete-event runtime.
//
// An LpRuntime owns K Simulators — one per logical process (LP).  Each
// LP keeps its private event queue (the existing wheel+heap tiering),
// clock, and RNG stream; LPs interact only through per-(src, dst)
// mailboxes of timestamped messages.  Execution is barrier-stepped:
//
//   window k covers virtual time (w_{k-1}, w_k], w_k = (k+1) * W
//   1. every LP runs its local events up to w_k        (parallel)
//   2. barrier
//   3. every dst LP drains its mailboxes               (parallel)
//   4. barrier, next window
//
// W is the partition's lookahead: the minimum propagation delay over
// cut links.  Safety: a cross-LP message created at local time c during
// window k carries timestamp c + prop >= c + W > w_{k-1} + W = w_k, so
// it can only be *due* in window k+1 or later — draining mailboxes at
// the barrier is always early enough, and no LP ever sees an event in
// its past.  (The boundary case c = w_{k-1}, prop = W lands exactly at
// w_k and is processed at the correct virtual time w_k at the start of
// window k+1.)
//
// Determinism contract (the honest one):
//   - The digest of a run is a pure function of (spec, lp_count).  It
//     does NOT depend on how many OS threads drive the LPs: thread w of
//     T executes LPs {i : i mod T == w} *sequentially in LP order*, LPs
//     share no mutable state inside a window, and mailboxes drain in
//     fixed (src LP asc, FIFO within src) order on the dst LP's own
//     worker — so T=1 and T=8 replay the identical event sequence.
//     Tests pin digest(lp_threads=1) == digest(lp_threads=4).
//   - lp_count == 1 is bit-identical to the legacy serial engine: the
//     runtime degenerates to a plain run_until on one Simulator seeded
//     with the raw spec seed, the exact code path the golden fig3/5/7/9
//     digests pin.
//   - lp_count N >= 2 uses per-LP RNG streams derived from the spec
//     seed (derive_lp_seed), so its digests differ from serial — by
//     construction.  A serial engine draws every packet's randomness
//     from ONE generator in global event order; reproducing that stream
//     under parallel execution would require executing serially.  What
//     the parallel engine guarantees instead is reproducibility: any
//     machine, any thread count, same (spec, N) => same digest.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/parallel/lp_probe.h"
#include "sim/simulator.h"
#include "sim/units.h"

namespace corelite::sim::par {

/// Deterministic per-LP seed stream: splitmix64 over (seed, lp) with a
/// distinct additive tag so LP streams never collide with the sweep's
/// derive_seed(base, repeat) streams.
[[nodiscard]] std::uint64_t derive_lp_seed(std::uint64_t seed, std::size_t lp);

class LpRuntime {
 public:
  /// `lp_count` logical processes.  With lp_count == 1 the single
  /// Simulator is seeded with the raw `seed` (legacy bit-identity);
  /// otherwise every LP i gets derive_lp_seed(seed, i).
  ///
  /// `threads_requested` == 0 (auto) asks the process-wide ThreadBudget
  /// for up to lp_count - 1 extra threads and logs when clamped; an
  /// explicit value is honored exactly (capped at lp_count) — tests and
  /// benches need exact thread counts.
  LpRuntime(std::size_t lp_count, std::uint64_t seed, TimeDelta lookahead,
            std::size_t threads_requested = 0);

  LpRuntime(const LpRuntime&) = delete;
  LpRuntime& operator=(const LpRuntime&) = delete;
  ~LpRuntime();

  [[nodiscard]] std::size_t lp_count() const { return sims_.size(); }
  [[nodiscard]] std::size_t threads() const { return threads_; }
  [[nodiscard]] TimeDelta lookahead() const { return lookahead_; }
  [[nodiscard]] Simulator& lp_sim(std::size_t lp) { return *sims_[lp]; }

  /// Post a message from src LP to dst LP, due at absolute time `at`.
  /// Must be called from the thread currently executing src's window
  /// (the single writer of that mailbox).  `at` must be >= src's clock
  /// plus the lookahead — the conservative safety condition.
  void post(std::size_t src_lp, std::size_t dst_lp, SimTime at, std::function<void()> fn);

  /// Run every LP to `deadline` in lookahead-sized barrier windows.
  /// With one LP this is exactly Simulator::run_until (no windows, no
  /// barriers, no threads).
  void run_until(SimTime deadline);

  /// Sum of events processed across LPs.
  [[nodiscard]] std::uint64_t events_processed() const;

  /// Attach an LP runtime profiler (see lp_probe.h).  Pure observation:
  /// event order and digests are identical with or without one; with
  /// none attached the worker loop takes no timestamps at all.
  void set_probe(LpProbe* probe) { probe_ = probe; }

 private:
  struct Mailbox {
    struct Msg {
      SimTime at;
      std::function<void()> fn;
    };
    // Padded out so mailboxes written by different src workers never
    // share a cache line.
    alignas(64) std::vector<Msg> msgs;
  };

  void drain_mailboxes(std::size_t dst_lp, std::uint64_t window);
  void worker_loop(std::size_t w, SimTime deadline, void* barrier);

  std::vector<std::unique_ptr<Simulator>> sims_;
  std::vector<Mailbox> boxes_;  ///< boxes_[src * K + dst]
  TimeDelta lookahead_ = TimeDelta::zero();
  std::size_t threads_ = 1;
  std::size_t budget_granted_ = 0;  ///< extra tokens held from ThreadBudget
  LpProbe* probe_ = nullptr;
};

}  // namespace corelite::sim::par
