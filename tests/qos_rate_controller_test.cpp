// Unit tests for the rate controller under the paper's LIMD policy: slow-start doubling
// and exit conditions, linear increase, marker-proportional decrease,
// floors and minimum-rate contracts.
#include <gtest/gtest.h>

#include "qos/rate_controller.h"

namespace corelite::qos {
namespace {

RateAdaptConfig default_cfg() {
  RateAdaptConfig cfg;
  cfg.alpha_pps = 1.0;
  cfg.beta_pps = 1.0;
  cfg.initial_rate_pps = 1.0;
  cfg.min_rate_pps = 0.5;
  cfg.ss_thresh_pps = 32.0;
  cfg.ss_double_interval = sim::TimeDelta::seconds(1);
  return cfg;
}

sim::SimTime at(double t) { return sim::SimTime::seconds(t); }

TEST(Limd, StartsInSlowStartAtInitialRate) {
  const auto cfg = default_cfg();
  RateController c{cfg};
  EXPECT_TRUE(c.in_slow_start());
  EXPECT_DOUBLE_EQ(c.rate_pps(), 1.0);
}

TEST(Limd, SlowStartDoublesOncePerInterval) {
  const auto cfg = default_cfg();
  RateController c{cfg};
  c.reset(cfg, at(0));
  // Epochs every 0.1 s: the rate must double only at whole seconds.
  for (int e = 1; e <= 10; ++e) c.on_epoch(cfg, 0, at(0.1 * e));
  EXPECT_DOUBLE_EQ(c.rate_pps(), 2.0);
  for (int e = 11; e <= 20; ++e) c.on_epoch(cfg, 0, at(0.1 * e));
  EXPECT_DOUBLE_EQ(c.rate_pps(), 4.0);
}

TEST(Limd, SlowStartExitsOnThreshold) {
  const auto cfg = default_cfg();
  RateController c{cfg};
  c.reset(cfg, at(0));
  // Doubling 1,2,4,8,16,32: 32 does not strictly exceed ss-thresh, so
  // slow start continues to 64 and only then halves to 32 and enters the
  // linear phase — matching the paper's "complete slow start at 7 s".
  for (int s = 1; s <= 5; ++s) c.on_epoch(cfg, 0, at(s));
  EXPECT_TRUE(c.in_slow_start());
  EXPECT_DOUBLE_EQ(c.rate_pps(), 32.0);
  c.on_epoch(cfg, 0, at(6));
  EXPECT_FALSE(c.in_slow_start());
  EXPECT_DOUBLE_EQ(c.rate_pps(), 32.0);  // 64 halved
}

TEST(Limd, SlowStartExitsOnFirstFeedback) {
  const auto cfg = default_cfg();
  RateController c{cfg};
  c.reset(cfg, at(0));
  c.on_epoch(cfg, 0, at(1));  // 2
  c.on_epoch(cfg, 0, at(2));  // 4
  EXPECT_TRUE(c.in_slow_start());
  c.on_epoch(cfg, 1, at(2.1));  // first congestion notification
  EXPECT_FALSE(c.in_slow_start());
  EXPECT_DOUBLE_EQ(c.rate_pps(), 2.0);  // halved
}

TEST(Limd, LinearIncreaseByAlphaWhenUnmarked) {
  auto cfg = default_cfg();
  cfg.alpha_pps = 2.5;
  RateController c{cfg};
  c.reset(cfg, at(0));
  c.on_epoch(cfg, 1, at(0.1));  // exit slow start at 0.5 (floored)
  const double r0 = c.rate_pps();
  c.on_epoch(cfg, 0, at(0.2));
  c.on_epoch(cfg, 0, at(0.3));
  EXPECT_DOUBLE_EQ(c.rate_pps(), r0 + 5.0);
}

TEST(Limd, DecreaseProportionalToMarkers) {
  auto cfg = default_cfg();
  cfg.beta_pps = 2.0;
  RateController c{cfg};
  c.reset(cfg, at(0));
  // Force into linear at a known rate.
  for (int s = 1; s <= 5; ++s) c.on_epoch(cfg, 0, at(s));  // still in slow start at 32
  for (int e = 0; e < 40; ++e) c.on_epoch(cfg, 0, at(5.1 + 0.1 * e));
  const double r0 = c.rate_pps();  // 16 + 40
  c.on_epoch(cfg, 3, at(9.2));     // 3 markers, beta 2 => -6
  EXPECT_DOUBLE_EQ(c.rate_pps(), r0 - 6.0);
}

TEST(Limd, NeverBelowFloor) {
  const auto cfg = default_cfg();
  RateController c{cfg};
  c.reset(cfg, at(0));
  c.on_epoch(cfg, 1, at(0.1));  // exit slow start
  for (int e = 0; e < 100; ++e) c.on_epoch(cfg, 50, at(0.2 + 0.1 * e));
  EXPECT_DOUBLE_EQ(c.rate_pps(), 0.5);  // cfg.min_rate_pps
}

TEST(Limd, MinRateContractRaisesFloor) {
  const auto cfg = default_cfg();
  RateController c{cfg, /*min_rate_contract_pps=*/10.0};
  c.reset(cfg, at(0));
  EXPECT_DOUBLE_EQ(c.rate_pps(), 10.0);  // initial rate lifted to contract
  c.on_epoch(cfg, 1, at(0.1));
  for (int e = 0; e < 100; ++e) c.on_epoch(cfg, 50, at(0.2 + 0.1 * e));
  EXPECT_DOUBLE_EQ(c.rate_pps(), 10.0);  // never throttled below contract
  EXPECT_DOUBLE_EQ(c.floor_pps(), 10.0);
}

TEST(Limd, ResetRestartsSlowStart) {
  const auto cfg = default_cfg();
  RateController c{cfg};
  c.reset(cfg, at(0));
  for (int s = 1; s <= 6; ++s) c.on_epoch(cfg, 0, at(s));
  EXPECT_FALSE(c.in_slow_start());
  c.reset(cfg, at(10));
  EXPECT_TRUE(c.in_slow_start());
  EXPECT_DOUBLE_EQ(c.rate_pps(), 1.0);
  // Doubling interval measured from the reset time, not from epoch 0.
  c.on_epoch(cfg, 0, at(10.5));
  EXPECT_DOUBLE_EQ(c.rate_pps(), 1.0);
  c.on_epoch(cfg, 0, at(11.0));
  EXPECT_DOUBLE_EQ(c.rate_pps(), 2.0);
}

TEST(Limd, ConvergesToFairnessForTwoSources) {
  // Chiu-Jain style check: two LIMD controllers sharing feedback
  // proportional to their (normalized) rates converge to equal rates.
  auto cfg = default_cfg();
  RateController a{cfg};
  RateController b{cfg};
  a.reset(cfg, at(0));
  b.reset(cfg, at(0));
  // Seed them asymmetrically in the linear phase.
  a.on_epoch(cfg, 1, at(0.05));
  b.on_epoch(cfg, 1, at(0.05));
  for (int e = 0; e < 200; ++e) a.on_epoch(cfg, 0, at(0.1 + e * 0.001));  // a races to ~200
  const double capacity = 300.0;
  for (int e = 0; e < 4000; ++e) {
    const auto t = at(1.0 + 0.1 * e);
    const double total = a.rate_pps() + b.rate_pps();
    // Feedback model: when over capacity, each flow is marked in
    // proportion to its rate (what the Corelite core guarantees).
    int ma = 0;
    int mb = 0;
    if (total > capacity) {
      const double excess = total - capacity;
      ma = static_cast<int>(excess * a.rate_pps() / total + 0.5);
      mb = static_cast<int>(excess * b.rate_pps() / total + 0.5);
    }
    a.on_epoch(cfg, ma, t);
    b.on_epoch(cfg, mb, t);
  }
  EXPECT_NEAR(a.rate_pps(), b.rate_pps(), 0.2 * (a.rate_pps() + b.rate_pps()) / 2.0);
  EXPECT_NEAR(a.rate_pps() + b.rate_pps(), capacity, 30.0);
}

}  // namespace
}  // namespace corelite::qos
