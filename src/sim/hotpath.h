// The always-on counter block: every counter the simulator keeps.
//
// Wall-clock numbers alone cannot tell a regression in a per-packet
// operation (exp/pow, RNG draws, observer dispatches, series appends,
// wheel inserts) from machine noise, and the paper's case for Corelite
// over CSFQ rests on counts: drops by cause, markers seen, feedback
// sent, relabels.  So the simulator bumps these counters
// unconditionally — plain thread-local adds, cheap enough to keep
// compiled into release builds — with telemetry on or off.
// hotpath_counter_fields() is the only list of their names: the run
// manifest's `hot_path_counters` block, `--profile`
// (telemetry::print_hotpath_profile) and bench/scale_flows' rows all
// walk it.
//
// Threading: each thread accumulates into its own thread-local block
// (no synchronization on the hot path).  A thread that finishes a unit
// of work publishes its block into a process-wide aggregate with
// flush_hotpath_counters() — one relaxed atomic add per counter.
// run_paper_scenario() flushes when a run ends and every extra LP
// worker flushes before it exits, so totals are complete at any
// --jobs or --lp-threads level.  aggregated_hotpath_counters() returns
// the aggregate plus the calling thread's unflushed local block.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace corelite::sim {

struct HotPathCounters {
  std::uint64_t exp_calls = 0;        ///< std::exp calls (CSFQ rate estimators)
  std::uint64_t pow_calls = 0;        ///< std::pow calls (RED-family aging, MD backoff)
  std::uint64_t rng_draws = 0;        ///< PRNG engine advances
  std::uint64_t observer_dispatches = 0;  ///< link observer callbacks invoked
  std::uint64_t series_appends = 0;   ///< samples appended to stats series
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
  std::uint64_t drops_admission = 0;  ///< data packets a link's admission hook refused
  std::uint64_t drops_control_loss = 0;   ///< control packets lost to control_loss_rate
  std::uint64_t drops_queue_full = 0;     ///< arrivals a queue rejected
  std::uint64_t drops_queue_internal = 0; ///< packets a queue evicted (e.g. WFQ)
  std::uint64_t markers_seen = 0;     ///< Corelite markers enqueued at core links
  std::uint64_t feedback_sent = 0;    ///< Corelite core feedback messages sent
  std::uint64_t csfq_relabels = 0;    ///< CSFQ labels lowered to a link's alpha
  std::uint64_t audit_windows = 0;    ///< fairness-auditor windows closed
  std::uint64_t audit_violations = 0; ///< flow-windows outside the audit band
  std::uint64_t audit_watchdog_fired = 0;  ///< fairness watchdog trips

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

/// One counter: the key every report prints it under, and its field.
struct HotPathCounterField {
  std::string_view key;
  std::uint64_t HotPathCounters::* member;
};

/// Every counted field, in declaration order (batch_drained is never
/// counted, so it is left out).  Flush, aggregate, reset and every
/// report walk this list; adding a counter is a two-line change.
[[nodiscard]] std::span<const HotPathCounterField> hotpath_counter_fields();

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
/// zero the local block.  run_paper_scenario() calls it when a run
/// ends and LP workers before they exit; one relaxed add per counter.
void flush_hotpath_counters();

/// Process-wide aggregate (all flushed blocks) plus the calling
/// thread's local block.  Worker threads must have flushed (every run
/// does) for their contribution to be visible.
[[nodiscard]] HotPathCounters aggregated_hotpath_counters();

/// Zero both the aggregate and the calling thread's local block.
/// Benchmarks call this between measured sections.
void reset_hotpath_counters();

}  // namespace corelite::sim
