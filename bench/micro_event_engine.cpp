// Event-engine microbenchmark: events/sec and heap allocations/event.
//
// The paper's experiments are million-event runs; the engine exists to
// make those cheap.  This bench measures the three layers that matter:
//   1. raw schedule/fire throughput of detached events with realistic
//      (24-byte) captures — the forwarding plane's bread and butter,
//   2. the same loop through handle-keeping schedule(), isolating the
//      cost of the cancellation control block,
//   3. steady-state packet forwarding on a live link, asserting the
//      zero-allocations-per-hop property end to end,
//   4. short-horizon and cold-record dispatch, each with the wheel on
//      and off (CORELITE_NO_WHEEL).
// Whole-scenario wall times live in bench/e2e (the paper-matrix
// workload runs the fig3/5/7/9 rows under every mechanism).
//
// Results go to stdout and, machine-readable, to
// BENCH_event_engine.json in the working directory.  Every number is a
// measurement of this build on this host; compare two builds by running
// both on one machine, never against numbers from another.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>
#include <vector>

#include "net/network.h"
#include "sim/hotpath.h"
#include "sim/random.h"
#include "sim/simulator.h"

// ---------------------------------------------------------------------------
// Allocation counting: replace global new/delete for this binary.

namespace {
std::uint64_t g_allocs = 0;
std::uint64_t g_frees = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept {
  ++g_frees;
  std::free(p);
}
void operator delete[](void* p) noexcept {
  ++g_frees;
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  ++g_frees;
  std::free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  ++g_frees;
  std::free(p);
}

namespace {

namespace sim = corelite::sim;
namespace net = corelite::net;

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

constexpr std::uint64_t kEvents = 2'000'000;
constexpr std::size_t kChains = 8;
// Warm-up firings before a loop is measured: the chains fire 8 events
// per simulated microsecond, so this laps the level-0 wheel (~2 ms)
// several times and every slot has grown before allocations count.
constexpr std::uint64_t kLoopWarmup = 65'536;

// Empirical schedule-delay distribution of the event engine's real
// traffic: 64 evenly spaced quantiles of the 670k schedule() deltas of a
// full csfq-80 scale row (60 s, weights i%3+1), captured with a
// temporary sampling hook on Simulator::at_detached.  The mass at 2 ms
// is propagation events, the 40 ms plateau is epoch/estimator timers,
// and the 37-67 ms spread is per-flow pacing (packet_size / rate for
// the weighted rate grid); ~3% of deltas are zero (same-instant
// handoffs, which the wheel declines to the heap by design).
constexpr double kCsfq80ScheduleDelays[64] = {
    0.000000000e+00, 0.000000000e+00, 2.000000000e-03, 2.000000000e-03,
    2.000000000e-03, 2.000000000e-03, 2.000000000e-03, 2.000000000e-03,
    2.000000000e-03, 2.000000000e-03, 2.000000000e-03, 2.000000000e-03,
    2.000000000e-03, 2.000000000e-03, 2.000000000e-03, 2.000000000e-03,
    2.000000000e-03, 2.000000000e-03, 2.000000000e-03, 2.000000000e-03,
    2.000000000e-03, 2.000000000e-03, 2.000000000e-03, 2.000000000e-03,
    2.000000000e-03, 2.000000000e-03, 2.000000000e-03, 2.631578947e-02,
    3.703703704e-02, 4.000000000e-02, 4.000000000e-02, 4.000000000e-02,
    4.000000000e-02, 4.000000000e-02, 4.000000000e-02, 4.000000000e-02,
    4.000000000e-02, 4.000000000e-02, 4.000000000e-02, 4.000000000e-02,
    4.000000000e-02, 4.000000000e-02, 4.000000000e-02, 4.000000000e-02,
    4.000000000e-02, 4.000000000e-02, 4.000000000e-02, 4.000000000e-02,
    4.000000000e-02, 4.000000000e-02, 4.000000000e-02, 4.000000000e-02,
    4.000000000e-02, 4.000000000e-02, 4.000000000e-02, 4.000000000e-02,
    4.000000000e-02, 4.000000000e-02, 4.166666667e-02, 4.347826087e-02,
    4.545454545e-02, 4.761904762e-02, 5.263157895e-02, 6.666666667e-02,
};
// Enough chains that the overflow heap's O(log n) actually bites when
// the wheel is disabled — a csfq-80 run keeps a few thousand timers
// pending, so this is the population the engine really carries.
constexpr std::size_t kShortChains = 4096;
constexpr std::uint64_t kShortEvents = 4'000'000;
constexpr std::uint64_t kShortWarmup = 200'000;

struct LoopResult {
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  double allocs_per_event = 0.0;
};

// One self-rescheduling chain of detached events.  The capture is
// 24 bytes — the size of a link-completion closure — and lives inline
// in the event slot.
void arm_detached(sim::Simulator& s, std::uint64_t& fired, std::uint64_t limit) {
  s.after_detached(sim::TimeDelta::micros(1), [&s, &fired, limit] {
    if (++fired < limit) arm_detached(s, fired, limit);
  });
}

LoopResult run_detached_loop() {
  sim::Simulator s;
  std::uint64_t fired = 0;
  // Warm the slot pool and queue storage with every chain the measured
  // loop runs, so allocs/event reads the steady state.
  for (std::size_t c = 0; c < kChains; ++c) arm_detached(s, fired, kLoopWarmup);
  s.run();
  fired = 0;

  const std::uint64_t allocs0 = g_allocs;
  const double t0 = now_seconds();
  for (std::size_t c = 0; c < kChains; ++c) arm_detached(s, fired, kEvents);
  s.run();
  const double wall = now_seconds() - t0;
  const std::uint64_t allocs = g_allocs - allocs0;

  LoopResult r;
  r.events = fired;
  r.events_per_sec = static_cast<double>(fired) / wall;
  r.allocs_per_event = static_cast<double>(allocs) / static_cast<double>(fired);
  return r;
}

void arm_handled(sim::Simulator& s, std::uint64_t& fired, std::uint64_t limit) {
  (void)s.after(sim::TimeDelta::micros(1), [&s, &fired, limit] {
    if (++fired < limit) arm_handled(s, fired, limit);
  });
}

LoopResult run_handled_loop() {
  sim::Simulator s;
  std::uint64_t fired = 0;
  for (std::size_t c = 0; c < kChains; ++c) arm_handled(s, fired, kLoopWarmup);
  s.run();
  fired = 0;

  const std::uint64_t allocs0 = g_allocs;
  const double t0 = now_seconds();
  for (std::size_t c = 0; c < kChains; ++c) arm_handled(s, fired, kEvents);
  s.run();
  const double wall = now_seconds() - t0;
  const std::uint64_t allocs = g_allocs - allocs0;

  LoopResult r;
  r.events = fired;
  r.events_per_sec = static_cast<double>(fired) / wall;
  r.allocs_per_event = static_cast<double>(allocs) / static_cast<double>(fired);
  return r;
}

// One self-rescheduling chain whose delays walk the empirical table via
// a Weyl sequence (deterministic, per-chain phase) — the short-horizon
// traffic shape the timing wheel exists for.
void arm_short(sim::Simulator& s, std::uint64_t& fired, std::uint64_t limit, std::uint32_t phase) {
  const double d = kCsfq80ScheduleDelays[phase >> 26];
  s.after_detached(sim::TimeDelta::seconds(d), [&s, &fired, limit, phase] {
    if (++fired < limit) arm_short(s, fired, limit, phase + 0x9E3779B9u);
  });
}

struct ShortHorizonResult {
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  double allocs_per_event = 0.0;
  double wheel_insert_rate = 0.0;   ///< share of events the wheel absorbed
  double cascades_per_event = 0.0;
};

ShortHorizonResult run_short_horizon(bool wheel_on) {
  // EventQueue reads the escape hatch at construction, so toggling the
  // environment here compares both engines inside one process.
  if (wheel_on) {
    unsetenv("CORELITE_NO_WHEEL");
  } else {
    setenv("CORELITE_NO_WHEEL", "1", 1);
  }
  sim::Simulator s;
  std::uint64_t fired = 0;
  // Warmup materializes the slot pool, the wheel's first level-1 lap
  // and the heap storage before counting.
  for (std::size_t c = 0; c < kShortChains; ++c) {
    arm_short(s, fired, kShortWarmup, static_cast<std::uint32_t>(c) * 0x61C88647u);
  }
  s.run();
  fired = 0;

  sim::reset_hotpath_counters();
  const std::uint64_t allocs0 = g_allocs;
  const double t0 = now_seconds();
  for (std::size_t c = 0; c < kShortChains; ++c) {
    arm_short(s, fired, kShortEvents, static_cast<std::uint32_t>(c) * 0x61C88647u);
  }
  s.run();
  const double wall = now_seconds() - t0;
  const std::uint64_t allocs = g_allocs - allocs0;
  const sim::HotPathCounters ops = sim::aggregated_hotpath_counters();

  ShortHorizonResult r;
  r.events = fired;
  r.events_per_sec = static_cast<double>(fired) / wall;
  r.allocs_per_event = static_cast<double>(allocs) / static_cast<double>(fired);
  r.wheel_insert_rate = ops.wheel_insert_rate();
  r.cascades_per_event = static_cast<double>(ops.wheel_cascades) /
                         static_cast<double>(ops.wheel_inserts + ops.heap_inserts);
  unsetenv("CORELITE_NO_WHEEL");
  return r;
}

// Cold per-flow records: kColdChains self-rescheduling chains, each
// reading and updating its own 192-byte record, the shape of the edges'
// emission timers at 100k flows.  Records (19 MB) and pending slots
// (6 MB) outgrow the cache, so dispatch is bound by memory latency;
// every closure is sim::Hinted with its record, which the dispatcher
// prefetches an event ahead.  Periods are uniform in [0.2, 0.8] s.
constexpr std::size_t kColdChains = 100'000;
constexpr double kColdWarmupSec = 1.0;
constexpr double kColdMeasureSec = 10.0;  // ~2.3M firings at 2.31/s per chain

// The fields a firing reads and writes lead the record, where the
// closure's hint points; the rest stands for the record's other state.
struct ColdRecord {
  double period;
  std::uint64_t fires = 0;
  double state = 0.0;
  std::uint64_t other[21] = {};
};
static_assert(sizeof(ColdRecord) == 192);

struct ColdRecordsResult {
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  double ns_per_event = 0.0;
  std::uint64_t order_checksum = 0;  ///< over (chain, fire time), firing order
};

struct ColdChains {
  sim::Simulator& s;
  std::vector<ColdRecord> records;
  std::uint64_t fired = 0;
  std::uint64_t checksum = 0xcbf29ce484222325ULL;

  void arm(std::uint32_t chain, sim::TimeDelta delay) {
    s.after_detached(delay, sim::hinted(&records[chain], [this, chain] { fire(chain); }));
  }

  void fire(std::uint32_t chain) {
    ColdRecord& r = records[chain];
    ++r.fires;
    r.state = r.state * 0.5 + r.period;
    ++fired;
    const double t = s.now().sec();
    std::uint64_t bits = 0;
    std::memcpy(&bits, &t, sizeof bits);
    checksum = (checksum ^ chain) * 0x100000001b3ULL;
    checksum = (checksum ^ bits) * 0x100000001b3ULL;
    arm(chain, sim::TimeDelta::seconds(r.period));
  }
};

ColdRecordsResult run_cold_records(bool wheel_on) {
  if (wheel_on) {
    unsetenv("CORELITE_NO_WHEEL");
  } else {
    setenv("CORELITE_NO_WHEEL", "1", 1);
  }
  sim::Simulator s;
  ColdChains chains{s, std::vector<ColdRecord>(kColdChains)};
  sim::Rng rng{20260917};
  for (std::uint32_t c = 0; c < kColdChains; ++c) {
    chains.records[c].period = rng.uniform(0.2, 0.8);
    chains.arm(c, sim::TimeDelta::seconds(rng.uniform(0.0, chains.records[c].period)));
  }
  s.run_until(sim::SimTime::seconds(kColdWarmupSec));
  chains.fired = 0;
  chains.checksum = 0xcbf29ce484222325ULL;

  const double t0 = now_seconds();
  s.run_until(sim::SimTime::seconds(kColdWarmupSec + kColdMeasureSec));
  const double wall = now_seconds() - t0;
  unsetenv("CORELITE_NO_WHEEL");

  ColdRecordsResult r;
  r.events = chains.fired;
  r.events_per_sec = static_cast<double>(chains.fired) / wall;
  r.ns_per_event = wall * 1e9 / static_cast<double>(chains.fired);
  r.order_checksum = chains.checksum;
  return r;
}

struct ForwardingResult {
  std::uint64_t hops = 0;
  std::uint64_t allocs = 0;
  double allocs_per_hop = 0.0;
  double hops_per_sec = 0.0;
};

// Saturate one 10 Mb/s link with 1 KB packets for 11 simulated seconds;
// after a 1 s warmup (pool slots, ring buffers and heap storage all
// materialized), the steady-state forwarding path must not touch the
// heap at all.
ForwardingResult run_forwarding_loop() {
  sim::Simulator s;
  net::Network network{s};
  const net::NodeId a = network.add_node("a");
  const net::NodeId b = network.add_node("b");
  const sim::DataSize pkt = sim::DataSize::bytes(1000);
  const sim::Rate rate = sim::Rate::mbps(10);
  network.connect(a, b, rate, sim::TimeDelta::millis(1), 64);
  network.build_routes();

  std::uint64_t delivered = 0;
  network.node(b).set_local_sink([&delivered](net::Packet&&) { ++delivered; });

  // Inject at 99% of line rate so the queue stays shallow and bounded.
  const double dt = rate.serialization_time(pkt).sec() / 0.99;
  struct Pump {
    sim::Simulator& s;
    net::Network& network;
    net::NodeId a, b;
    sim::DataSize pkt;
    double dt;
    void fire() {
      net::Packet p;
      p.uid = network.next_packet_uid();
      p.flow = 1;
      p.src = a;
      p.dst = b;
      p.size = pkt;
      p.created = s.now();
      network.inject(a, std::move(p));
      s.after_detached(sim::TimeDelta::seconds(dt), [this] { fire(); });
    }
  };
  Pump pump{s, network, a, b, pkt, dt};
  pump.fire();

  s.run_until(sim::SimTime::seconds(1));  // warmup
  const std::uint64_t allocs0 = g_allocs;
  const std::uint64_t delivered0 = delivered;
  const double t0 = now_seconds();
  s.run_until(sim::SimTime::seconds(11));
  const double wall = now_seconds() - t0;

  ForwardingResult r;
  r.hops = delivered - delivered0;
  r.allocs = g_allocs - allocs0;
  r.allocs_per_hop = static_cast<double>(r.allocs) / static_cast<double>(r.hops);
  r.hops_per_sec = static_cast<double>(r.hops) / wall;
  return r;
}

}  // namespace

int main() {
  std::printf("Event-engine microbenchmark (%llu events, %zu chains, 24-byte captures)\n\n",
              static_cast<unsigned long long>(kEvents), kChains);

  const LoopResult detached = run_detached_loop();
  std::printf("detached schedule/fire : %8.2f M events/s   %.4f allocs/event\n",
              detached.events_per_sec / 1e6, detached.allocs_per_event);

  const LoopResult handled = run_handled_loop();
  std::printf("handled schedule/fire  : %8.2f M events/s   %.4f allocs/event\n",
              handled.events_per_sec / 1e6, handled.allocs_per_event);

  const ShortHorizonResult sh_on = run_short_horizon(/*wheel_on=*/true);
  const ShortHorizonResult sh_off = run_short_horizon(/*wheel_on=*/false);
  const double sh_ratio = sh_on.events_per_sec / sh_off.events_per_sec;
  std::printf("short-horizon (wheel)  : %8.2f M events/s   %.4f allocs/event  "
              "(%.1f%% wheel, %.2f cascades/event)\n",
              sh_on.events_per_sec / 1e6, sh_on.allocs_per_event,
              sh_on.wheel_insert_rate * 100.0, sh_on.cascades_per_event);
  std::printf("short-horizon (heap)   : %8.2f M events/s   %.4f allocs/event  "
              "(wheel/heap ratio %.2fx)\n",
              sh_off.events_per_sec / 1e6, sh_off.allocs_per_event, sh_ratio);

  const ColdRecordsResult cold_on = run_cold_records(/*wheel_on=*/true);
  const ColdRecordsResult cold_off = run_cold_records(/*wheel_on=*/false);
  std::printf("cold records (wheel)   : %8.2f M events/s   %.1f ns/event  "
              "(%llu firings, order checksum %016llx)\n",
              cold_on.events_per_sec / 1e6, cold_on.ns_per_event,
              static_cast<unsigned long long>(cold_on.events),
              static_cast<unsigned long long>(cold_on.order_checksum));
  std::printf("cold records (heap)    : %8.2f M events/s   %.1f ns/event  "
              "(%llu firings, order checksum %016llx)\n",
              cold_off.events_per_sec / 1e6, cold_off.ns_per_event,
              static_cast<unsigned long long>(cold_off.events),
              static_cast<unsigned long long>(cold_off.order_checksum));

  const ForwardingResult fwd = run_forwarding_loop();
  std::printf("forwarding steady state: %8.2f M hops/s     %.4f allocs/hop (%llu allocs / %llu hops)\n",
              fwd.hops_per_sec / 1e6, fwd.allocs_per_hop,
              static_cast<unsigned long long>(fwd.allocs),
              static_cast<unsigned long long>(fwd.hops));


  std::FILE* json = std::fopen("BENCH_event_engine.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"hw_threads\": %u,\n"
                 "  \"detached_schedule_fire\": {\n"
                 "    \"events\": %llu,\n"
                 "    \"events_per_sec\": %.0f,\n"
                 "    \"allocs_per_event\": %.6f\n"
                 "  },\n"
                 "  \"handled_schedule_fire\": {\n"
                 "    \"events\": %llu,\n"
                 "    \"events_per_sec\": %.0f,\n"
                 "    \"allocs_per_event\": %.6f\n"
                 "  },\n"
                 "  \"short_horizon\": {\n"
                 "    \"events\": %llu,\n"
                 "    \"chains\": %zu,\n"
                 "    \"delay_distribution\": \"64-quantile table sampled from a real csfq-80 "
                 "run (see kCsfq80ScheduleDelays)\",\n"
                 "    \"wheel_on_events_per_sec\": %.0f,\n"
                 "    \"wheel_off_events_per_sec\": %.0f,\n"
                 "    \"wheel_over_heap_ratio\": %.3f,\n"
                 "    \"wheel_insert_rate\": %.3f,\n"
                 "    \"cascades_per_event\": %.3f,\n"
                 "    \"allocs_per_event_wheel_on\": %.6f\n"
                 "  },\n"
                 "  \"cold_records\": {\n"
                 "    \"chains\": %zu,\n"
                 "    \"record_bytes\": %zu,\n"
                 "    \"events\": %llu,\n"
                 "    \"wheel_on_events_per_sec\": %.0f,\n"
                 "    \"wheel_on_ns_per_event\": %.1f,\n"
                 "    \"wheel_off_events_per_sec\": %.0f,\n"
                 "    \"wheel_off_ns_per_event\": %.1f,\n"
                 "    \"wheel_on_order_checksum\": \"%016llx\",\n"
                 "    \"wheel_off_order_checksum\": \"%016llx\"\n"
                 "  },\n"
                 "  \"forwarding_steady_state\": {\n"
                 "    \"hops\": %llu,\n"
                 "    \"allocs\": %llu,\n"
                 "    \"allocs_per_hop\": %.6f,\n"
                 "    \"hops_per_sec\": %.0f\n"
                 "  }\n"
                 "}\n",
                 std::thread::hardware_concurrency(),
                 static_cast<unsigned long long>(detached.events), detached.events_per_sec,
                 detached.allocs_per_event, static_cast<unsigned long long>(handled.events),
                 handled.events_per_sec, handled.allocs_per_event,
                 static_cast<unsigned long long>(sh_on.events), kShortChains,
                 sh_on.events_per_sec, sh_off.events_per_sec, sh_ratio,
                 sh_on.wheel_insert_rate, sh_on.cascades_per_event, sh_on.allocs_per_event,
                 kColdChains, sizeof(ColdRecord), static_cast<unsigned long long>(cold_on.events),
                 cold_on.events_per_sec, cold_on.ns_per_event, cold_off.events_per_sec,
                 cold_off.ns_per_event, static_cast<unsigned long long>(cold_on.order_checksum),
                 static_cast<unsigned long long>(cold_off.order_checksum),
                 static_cast<unsigned long long>(fwd.hops),
                 static_cast<unsigned long long>(fwd.allocs), fwd.allocs_per_hop,
                 fwd.hops_per_sec);
    std::fclose(json);
    std::printf("wrote BENCH_event_engine.json\n");
  }
  return 0;
}
