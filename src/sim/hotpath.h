// Hot-path operation counters.
//
// The simulator's wall clock is dominated by a handful of per-packet
// operations: transcendental math (exp/pow), RNG draws, link observer
// dispatches and time-series appends.  Wall-clock numbers alone cannot
// tell a regression in one of these from machine noise, so the hot
// paths bump these counters unconditionally — the increments are plain
// thread-local adds, cheap enough to keep compiled into release builds
// — and `--profile` on corelite_sim and bench/scale_flows prints them
// (telemetry::print_hotpath_profile).
//
// Threading: each thread accumulates into its own thread-local block
// (no synchronization on the hot path).  A thread that finishes a unit
// of work publishes its block into a process-wide aggregate with
// flush_hotpath_counters() — a handful of relaxed atomic adds — which
// is what the sweep runner does after every run, so --profile output is
// complete at any --jobs level.  aggregated_hotpath_counters() returns
// the aggregate plus the calling thread's unflushed local block.
#pragma once

#include <cstdint>

namespace corelite::sim {

struct HotPathCounters {
  std::uint64_t exp_calls = 0;        ///< std::exp calls (CSFQ rate estimators)
  std::uint64_t pow_calls = 0;        ///< std::pow calls (RED-family aging, MD backoff)
  std::uint64_t rng_draws = 0;        ///< PRNG engine advances
  std::uint64_t observer_dispatches = 0;  ///< link observer callbacks invoked
  std::uint64_t series_appends = 0;   ///< stats::TimeSeries::add() samples
  std::uint64_t wheel_inserts = 0;    ///< events filed in a timing-wheel slot
  std::uint64_t wheel_cascades = 0;   ///< wheel entries re-filed a level down
  std::uint64_t heap_inserts = 0;     ///< events filed in the overflow heap
                                      ///  (every event when CORELITE_NO_WHEEL)
  /// Always 0: links do not fuse completions (each is its own event).
  /// Kept because the e2e bench still reports it as `sim.batch_drained`.
  std::uint64_t batch_drained = 0;
  std::uint64_t lp_barriers = 0;      ///< barrier crossings in the parallel engine
  std::uint64_t cross_lp_events = 0;  ///< packets handed between LPs via mailboxes
  std::uint64_t mailbox_flushes = 0;  ///< non-empty mailbox drains at a barrier
  std::uint64_t lookahead_ns = 0;     ///< conservative window length (summed per run)

  /// Share of scheduled events the wheel tier absorbed.
  [[nodiscard]] double wheel_insert_rate() const {
    const std::uint64_t total = wheel_inserts + heap_inserts;
    return total == 0 ? 0.0
                      : static_cast<double>(wheel_inserts) / static_cast<double>(total);
  }
  /// Always 0: exp is not memoized.  Kept because the e2e bench still
  /// reports it as `csfq.exp_hit_rate`.
  [[nodiscard]] double exp_hit_rate() const { return 0.0; }
};

namespace detail {
/// Zero-initialized POD in the TLS image: access compiles to a couple
/// of fs-relative instructions, with no guard variable and no call —
/// the increments sit on the per-packet path.
inline constinit thread_local HotPathCounters t_hotpath_counters{};
}  // namespace detail

/// The calling thread's counter block.  Hot paths increment through
/// this; never cache the reference across threads.
[[nodiscard]] inline HotPathCounters& hotpath_counters() {
  return detail::t_hotpath_counters;
}

/// Add the calling thread's block into the process-wide aggregate and
/// zero the local block.  Called by the sweep runner after each run and
/// by run_paper_scenario() on completion; cheap (a dozen relaxed adds).
void flush_hotpath_counters();

/// Process-wide aggregate (all flushed blocks) plus the calling
/// thread's local block.  Worker threads must have flushed (the sweep
/// runner does) for their contribution to be visible.
[[nodiscard]] HotPathCounters aggregated_hotpath_counters();

/// Zero both the aggregate and the calling thread's local block.
/// Benchmarks call this between measured sections.
void reset_hotpath_counters();

}  // namespace corelite::sim
