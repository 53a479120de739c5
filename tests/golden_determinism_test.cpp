// Golden determinism regression for the event engine.
//
// The engine rewrite (inline callbacks, detached scheduling, pooled
// packets, indexed 4-ary heap) must be invisible to the simulation:
// same (time, seq) firing order, same RNG draws, same packet-level
// outcome bit for bit.  These constants were captured from the seed
// engine (std::function + shared_ptr packets + std::priority_queue)
// running the Figure-5 scenario with seed 42; any engine change that
// alters event order or RNG consumption shifts the event count and the
// per-flow delivery checksum and fails here.
// The timing-wheel tier must be equally invisible: the wheel only
// re-buckets entries (exact (time, seq) order is restored on
// collection), so every golden scenario must fingerprint identically
// with the wheel on and off (CORELITE_NO_WHEEL, read at EventQueue
// construction).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>

#include "scenario/scenario.h"

namespace corelite {
namespace {

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ULL;
  }
  return h;
}

struct Fingerprint {
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
  std::uint64_t checksum = 0;
};

Fingerprint run(scenario::Mechanism mech) {
  auto spec = scenario::fig5_simultaneous_start(mech);
  spec.seed = 42;
  const auto r = scenario::run_paper_scenario(spec);
  Fingerprint fp;
  fp.events = r.events_processed;
  fp.checksum = 1469598103934665603ULL;
  for (std::size_t i = 1; i <= spec.num_flows; ++i) {
    const auto& fs = r.tracker.series(static_cast<net::FlowId>(i));
    const std::uint64_t bytes =
        fs.delivered * static_cast<std::uint64_t>(spec.topology.packet_size.byte_count());
    fp.checksum = fnv1a(fp.checksum, i);
    fp.checksum = fnv1a(fp.checksum, bytes);
    fp.delivered += fs.delivered;
  }
  return fp;
}

TEST(GoldenDeterminism, CoreliteFig5Seed42MatchesSeedEngine) {
  const Fingerprint fp = run(scenario::Mechanism::Corelite);
  EXPECT_EQ(fp.events, 444442u);
  EXPECT_EQ(fp.delivered, 36665u);
  EXPECT_EQ(fp.checksum, 0xfcdc133cb00a346bULL);
}

TEST(GoldenDeterminism, CsfqFig5Seed42MatchesSeedEngine) {
  const Fingerprint fp = run(scenario::Mechanism::Csfq);
  EXPECT_EQ(fp.events, 365906u);
  EXPECT_EQ(fp.delivered, 37264u);
  EXPECT_EQ(fp.checksum, 0x16e58923be532030ULL);
}

TEST(GoldenDeterminism, RepeatedRunsAreBitIdentical) {
  const Fingerprint a = run(scenario::Mechanism::Corelite);
  const Fingerprint b = run(scenario::Mechanism::Corelite);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.checksum, b.checksum);
}

// ---------------------------------------------------------------------------
// Wheel tier equivalence across every golden scenario.

Fingerprint run_spec(scenario::ScenarioSpec spec) {
  spec.seed = 42;
  const auto r = scenario::run_paper_scenario(spec);
  Fingerprint fp;
  fp.events = r.events_processed;
  fp.checksum = 1469598103934665603ULL;
  for (std::size_t i = 1; i <= spec.num_flows; ++i) {
    const auto& fs = r.tracker.series(static_cast<net::FlowId>(i));
    const std::uint64_t bytes =
        fs.delivered * static_cast<std::uint64_t>(spec.topology.packet_size.byte_count());
    fp.checksum = fnv1a(fp.checksum, i);
    fp.checksum = fnv1a(fp.checksum, bytes);
    fp.delivered += fs.delivered;
  }
  return fp;
}

// The escape hatch is read at EventQueue construction, so flipping the
// environment between run_paper_scenario calls compares fresh engines
// inside one process.
Fingerprint run_with(scenario::ScenarioSpec spec, bool wheel) {
  if (wheel) {
    unsetenv("CORELITE_NO_WHEEL");
  } else {
    setenv("CORELITE_NO_WHEEL", "1", 1);
  }
  const Fingerprint fp = run_spec(std::move(spec));
  unsetenv("CORELITE_NO_WHEEL");
  return fp;
}

using SpecFactory = scenario::ScenarioSpec (*)(scenario::Mechanism);

struct GoldenCase {
  const char* name;
  SpecFactory make;
};

constexpr GoldenCase kGoldenScenarios[] = {
    {"fig3", &scenario::fig3_network_dynamics},
    {"fig5", &scenario::fig5_simultaneous_start},
    {"fig7", &scenario::fig7_staggered_start},
    {"fig9", &scenario::fig9_churn},
};

TEST(GoldenDeterminism, WheelOnMatchesWheelOffOnEveryGoldenScenario) {
  for (const auto& g : kGoldenScenarios) {
    for (const auto mech : {scenario::Mechanism::Corelite, scenario::Mechanism::Csfq}) {
      const Fingerprint on = run_with(g.make(mech), /*wheel=*/true);
      const Fingerprint off = run_with(g.make(mech), /*wheel=*/false);
      EXPECT_EQ(on.events, off.events) << g.name << " mech " << static_cast<int>(mech);
      EXPECT_EQ(on.delivered, off.delivered) << g.name << " mech " << static_cast<int>(mech);
      EXPECT_EQ(on.checksum, off.checksum) << g.name << " mech " << static_cast<int>(mech);
    }
  }
}

TEST(GoldenDeterminism, HeapOnlyStillMatchesTheGoldenFingerprint) {
  // Anchors the equivalence chain to the frozen seed-engine constants:
  // heap-only — the engine configuration the golden numbers were
  // captured on.
  const Fingerprint fp =
      run_with(scenario::fig5_simultaneous_start(scenario::Mechanism::Corelite),
               /*wheel=*/false);
  EXPECT_EQ(fp.events, 444442u);
  EXPECT_EQ(fp.delivered, 36665u);
  EXPECT_EQ(fp.checksum, 0xfcdc133cb00a346bULL);
}

}  // namespace
}  // namespace corelite
