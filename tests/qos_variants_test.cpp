// Tests for the pluggable variants: AIMD/MIMD rate controllers, the
// replaceable congestion detectors, and the edge pacing modes.
#include <gtest/gtest.h>

#include <cmath>

#include "net/network.h"
#include "qos/congestion_estimator.h"
#include "qos/edge_router.h"
#include "qos/rate_controller.h"
#include "sim/simulator.h"
#include "stats/flow_tracker.h"

namespace corelite::qos {
namespace {

sim::SimTime at(double t) { return sim::SimTime::seconds(t); }

RateAdaptConfig cfg_of(AdaptKind kind) {
  RateAdaptConfig cfg;
  cfg.kind = kind;
  return cfg;
}

// ---------------------------------------------------------------------------
// Controller variants

TEST(AdaptVariants, KindSelectsPolicy) {
  // Same closed-loop state, one unmarked and one marked epoch: LIMD and
  // AIMD add alpha, MIMD multiplies by mi_factor; LIMD subtracts beta
  // per marker, AIMD and MIMD multiply by (1 - md_factor)^m.
  for (AdaptKind kind : {AdaptKind::Limd, AdaptKind::Aimd, AdaptKind::Mimd}) {
    auto cfg = cfg_of(kind);
    cfg.alpha_pps = 3.0;
    cfg.beta_pps = 2.0;
    cfg.md_factor = 0.5;
    cfg.mi_factor = 1.5;
    RateController c{cfg};
    c.reset(cfg, at(0));
    for (int s = 1; s <= 6; ++s) c.on_epoch(cfg, 0, at(s));  // exit slow start at 32
    ASSERT_DOUBLE_EQ(c.rate_pps(), 32.0);
    c.on_epoch(cfg, 0, at(6.1));
    EXPECT_DOUBLE_EQ(c.rate_pps(), kind == AdaptKind::Mimd ? 48.0 : 35.0);
    const double r0 = c.rate_pps();
    c.on_epoch(cfg, 2, at(6.2));
    EXPECT_DOUBLE_EQ(c.rate_pps(), kind == AdaptKind::Limd ? r0 - 4.0 : r0 * 0.25);
  }
}

TEST(AdaptVariants, AimdDecreaseIsMultiplicative) {
  auto cfg = cfg_of(AdaptKind::Aimd);
  cfg.md_factor = 0.1;
  RateController c{cfg};
  c.reset(cfg, at(0));
  for (int s = 1; s <= 6; ++s) c.on_epoch(cfg, 0, at(s));  // exit slow start at 32
  for (int e = 0; e < 100; ++e) c.on_epoch(cfg, 0, at(6.1 + 0.1 * e));  // climb to 132
  const double r0 = c.rate_pps();
  c.on_epoch(cfg, 2, at(17.0));
  EXPECT_NEAR(c.rate_pps(), r0 * 0.81, 1e-9);  // (1-0.1)^2
}

TEST(AdaptVariants, MimdIncreaseIsMultiplicative) {
  auto cfg = cfg_of(AdaptKind::Mimd);
  cfg.mi_factor = 1.05;
  RateController c{cfg};
  c.reset(cfg, at(0));
  for (int s = 1; s <= 6; ++s) c.on_epoch(cfg, 0, at(s));  // exit slow start at 32
  const double r0 = c.rate_pps();
  c.on_epoch(cfg, 0, at(6.5));
  c.on_epoch(cfg, 0, at(6.6));
  EXPECT_NEAR(c.rate_pps(), r0 * 1.05 * 1.05, 1e-9);
}

TEST(AdaptVariants, AllVariantsShareSlowStart) {
  for (AdaptKind kind : {AdaptKind::Limd, AdaptKind::Aimd, AdaptKind::Mimd}) {
    const auto cfg = cfg_of(kind);
    RateController c{cfg};
    c.reset(cfg, at(0));
    EXPECT_TRUE(c.in_slow_start());
    c.on_epoch(cfg, 1, at(0.1));  // first feedback exits slow start everywhere
    EXPECT_FALSE(c.in_slow_start());
  }
}

TEST(AdaptVariants, FloorHoldsForAllVariants) {
  for (AdaptKind kind : {AdaptKind::Limd, AdaptKind::Aimd, AdaptKind::Mimd}) {
    const auto cfg = cfg_of(kind);
    RateController c{cfg, /*contract=*/7.0};
    c.reset(cfg, at(0));
    for (int e = 0; e < 200; ++e) c.on_epoch(cfg, 10, at(0.1 * (e + 1)));
    EXPECT_GE(c.rate_pps(), 7.0) << "kind " << static_cast<int>(kind);
  }
}

// ---------------------------------------------------------------------------
// Detector variants

TEST(DetectorVariants, FactoryBuildsRequestedKind) {
  CoreliteConfig cfg;
  cfg.detector = DetectorKind::EpochAverage;
  ASSERT_NE(dynamic_cast<CongestionEstimator*>(make_congestion_detector(cfg, 500.0).get()),
            nullptr);
  cfg.detector = DetectorKind::BusyIdleCycle;
  ASSERT_NE(dynamic_cast<BusyIdleCycleDetector*>(make_congestion_detector(cfg, 500.0).get()),
            nullptr);
  cfg.detector = DetectorKind::Ewma;
  ASSERT_NE(dynamic_cast<EwmaDetector*>(make_congestion_detector(cfg, 500.0).get()), nullptr);
}

TEST(DetectorVariants, LegacyMuScalesFn) {
  CoreliteConfig cfg;
  cfg.k_cubic = 0.0;
  auto modern = make_congestion_detector(cfg, 500.0);
  cfg.legacy_per_epoch_mu = true;
  auto legacy = make_congestion_detector(cfg, 500.0);
  // Same queue trajectory through both.
  for (auto* d : {modern.get(), legacy.get()}) {
    d->on_queue_length(20, at(0.0));
  }
  const double fn_modern = modern->end_epoch(at(0.1));
  const double fn_legacy = legacy->end_epoch(at(0.1));
  EXPECT_NEAR(fn_modern, fn_legacy * 10.0, 1e-9);  // 100 ms epochs
}

TEST(DetectorVariants, BusyIdleAveragesOverCycles) {
  BusyIdleCycleDetector d{8.0, 0.0, 500.0, 1.0};
  // Busy at 20 for 0.1 s, idle for 0.1 s, busy again: at the second
  // busy transition the previous cycle (avg 10) is complete.
  d.on_queue_length(20, at(0.0));
  d.on_queue_length(0, at(0.1));
  d.on_queue_length(20, at(0.2));
  (void)d.end_epoch(at(0.2));
  EXPECT_NEAR(d.last_q_avg(), 10.0, 1e-9);
}

TEST(DetectorVariants, BusyIdleSignalsCongestionUnderSustainedLoad) {
  BusyIdleCycleDetector d{8.0, 0.0, 500.0, 1.0};
  d.on_queue_length(30, at(0.0));  // busy, never idles
  const double fn = d.end_epoch(at(0.5));
  EXPECT_GT(fn, 0.0);
  EXPECT_NEAR(d.last_q_avg(), 30.0, 1e-9);
}

TEST(DetectorVariants, EwmaTracksSamplesNotTime) {
  EwmaDetector d{8.0, 0.0, 500.0, 1.0, /*gain=*/0.5};
  // avg after two samples of 16 with gain 0.5: 0 -> 8 -> 12, regardless
  // of how much virtual time separates the samples.
  d.on_queue_length(16, at(0.0));
  d.on_queue_length(16, at(5.0));
  EXPECT_NEAR(d.last_q_avg(), 12.0, 1e-9);
  const double fn = d.end_epoch(at(5.1));
  EXPECT_GT(fn, 0.0);  // 12 > threshold 8
}

// ---------------------------------------------------------------------------
// Pacing modes (measured through the edge router)

struct PacingFixture {
  sim::Simulator simulator{3};
  net::Network network{simulator};
  net::NodeId edge = network.add_node("edge");
  net::NodeId sink = network.add_node("sink");
  CoreliteConfig cfg;
  stats::FlowTracker tracker;
  std::vector<double> arrivals;

  PacingFixture() {
    network.connect_duplex(edge, sink, sim::Rate::mbps(100), sim::TimeDelta::millis(1), 2000);
    network.build_routes();
    network.node(sink).set_local_sink([this](net::Packet&& p) {
      if (p.is_data()) arrivals.push_back(simulator.now().sec());
    });
  }

  void run(PacingMode mode) {
    cfg.pacing = mode;
    // Pin the rate: no adaptation noise (no congestion on a fat link).
    cfg.adapt.ss_thresh_pps = 100.0;
    cfg.adapt.alpha_pps = 1e-6;
    qos::CoreliteEdgeRouter er{network, edge, cfg, &tracker};
    net::FlowSpec fs;
    fs.id = 1;
    fs.ingress = edge;
    fs.egress = sink;
    fs.weight = 1.0;
    er.add_flow(fs);
    simulator.run_until(sim::SimTime::seconds(60));
  }

  [[nodiscard]] double rate_between(double t0, double t1) const {
    int n = 0;
    for (double t : arrivals) {
      if (t >= t0 && t < t1) ++n;
    }
    return n / (t1 - t0);
  }
};

TEST(Pacing, PoissonKeepsAverageRate) {
  PacingFixture paced;
  paced.run(PacingMode::Paced);
  PacingFixture poisson;
  poisson.run(PacingMode::Poisson);
  // Same controller trajectory, same average rate within 10%.
  EXPECT_NEAR(poisson.rate_between(20, 60), paced.rate_between(20, 60),
              0.1 * paced.rate_between(20, 60));
}

TEST(Pacing, PoissonGapsAreIrregular) {
  PacingFixture f;
  f.run(PacingMode::Poisson);
  // Coefficient of variation of inter-arrival gaps ~1 for Poisson, ~0 for CBR.
  double mean = 0.0;
  std::vector<double> gaps;
  for (std::size_t i = 1; i < f.arrivals.size(); ++i) {
    if (f.arrivals[i] > 20.0) gaps.push_back(f.arrivals[i] - f.arrivals[i - 1]);
  }
  ASSERT_GT(gaps.size(), 100u);
  for (double g : gaps) mean += g;
  mean /= static_cast<double>(gaps.size());
  double var = 0.0;
  for (double g : gaps) var += (g - mean) * (g - mean);
  var /= static_cast<double>(gaps.size());
  const double cov = std::sqrt(var) / mean;
  EXPECT_GT(cov, 0.7);
  EXPECT_LT(cov, 1.3);
}

TEST(Pacing, OnOffBurstsAndIdles) {
  PacingFixture f;
  f.cfg.on_off_burst = sim::TimeDelta::millis(200);
  f.cfg.on_off_idle = sim::TimeDelta::millis(200);
  f.run(PacingMode::OnOff);
  // Average rate preserved within 20%...
  PacingFixture paced;
  paced.run(PacingMode::Paced);
  EXPECT_NEAR(f.rate_between(20, 60), paced.rate_between(20, 60),
              0.2 * paced.rate_between(20, 60));
  // ...but arrivals cluster: some 100 ms buckets empty, others loaded.
  int empty_buckets = 0;
  int loaded_buckets = 0;
  for (double t = 20.0; t < 60.0; t += 0.1) {
    const double n = f.rate_between(t, t + 0.1);
    if (n == 0.0) ++empty_buckets;
    if (n > 1.5 * paced.rate_between(20, 60)) ++loaded_buckets;
  }
  EXPECT_GT(empty_buckets, 50);
  EXPECT_GT(loaded_buckets, 50);
}

}  // namespace
}  // namespace corelite::qos
