#include "sim/hotpath.h"

#include <atomic>
#include <cstddef>
#include <iterator>

namespace corelite::sim {

namespace {

using C = HotPathCounters;
constexpr HotPathCounterField kFields[] = {
    {"exp_calls", &C::exp_calls},
    {"pow_calls", &C::pow_calls},
    {"rng_draws", &C::rng_draws},
    {"observer_dispatches", &C::observer_dispatches},
    {"series_appends", &C::series_appends},
    {"wheel_inserts", &C::wheel_inserts},
    {"wheel_cascades", &C::wheel_cascades},
    {"heap_inserts", &C::heap_inserts},
    {"lp_barriers", &C::lp_barriers},
    {"cross_lp_events", &C::cross_lp_events},
    {"mailbox_flushes", &C::mailbox_flushes},
    {"lookahead_ns", &C::lookahead_ns},
    {"drops_admission", &C::drops_admission},
    {"drops_control_loss", &C::drops_control_loss},
    {"drops_queue_full", &C::drops_queue_full},
    {"drops_queue_internal", &C::drops_queue_internal},
    {"markers_seen", &C::markers_seen},
    {"feedback_sent", &C::feedback_sent},
    {"csfq_relabels", &C::csfq_relabels},
    {"audit_windows", &C::audit_windows},
    {"audit_violations", &C::audit_violations},
    {"audit_watchdog_fired", &C::audit_watchdog_fired},
};

std::atomic<std::uint64_t> g_aggregate[std::size(kFields)];

}  // namespace

std::span<const HotPathCounterField> hotpath_counter_fields() { return kFields; }

void flush_hotpath_counters() {
  HotPathCounters& c = hotpath_counters();
  for (std::size_t i = 0; i < std::size(kFields); ++i) {
    g_aggregate[i].fetch_add(c.*kFields[i].member, std::memory_order_relaxed);
  }
  c = HotPathCounters{};
}

HotPathCounters aggregated_hotpath_counters() {
  HotPathCounters out = hotpath_counters();
  for (std::size_t i = 0; i < std::size(kFields); ++i) {
    out.*kFields[i].member += g_aggregate[i].load(std::memory_order_relaxed);
  }
  return out;
}

void reset_hotpath_counters() {
  hotpath_counters() = HotPathCounters{};
  for (auto& a : g_aggregate) a.store(0, std::memory_order_relaxed);
}

}  // namespace corelite::sim
