// Metrics-registry tests: registration semantics, the off-by-default
// guarantee, gauge/histogram accumulation, log-bucket math and
// cross-thread merging; plus the always-on counter block that holds
// every count (sim::HotPathCounters).
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/hotpath.h"
#include "telemetry/manifest.h"
#include "telemetry/metrics.h"

namespace corelite::telemetry {
namespace {

// Each test enables telemetry and starts from zeroed values; the suite
// leaves the process-global switch off, matching the binaries' default.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    reset_metrics();
  }
  void TearDown() override {
    reset_metrics();
    set_enabled(false);
  }

  static std::optional<MetricSnapshot> find(const std::string& name) {
    for (auto& m : metrics_snapshot()) {
      if (m.name == name) return m;
    }
    return std::nullopt;
  }
};

TEST_F(MetricsTest, RegistrationIsIdempotentByName) {
  const MetricId a = register_metric("test.reg.gauge", MetricKind::Gauge);
  const MetricId b = register_metric("test.reg.gauge", MetricKind::Gauge);
  ASSERT_NE(a, kInvalidMetric);
  EXPECT_EQ(a, b);
  // Same name, different kind: rejected rather than silently aliased.
  EXPECT_EQ(register_metric("test.reg.gauge", MetricKind::Histogram), kInvalidMetric);
}

TEST_F(MetricsTest, DisabledBumpRecordsNothing) {
  const Gauge g{"test.off.gauge"};
  set_enabled(false);
  g.set(100.0);
  set_enabled(true);
  const auto snap = find("test.off.gauge");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->count, 0u);
  // A default-constructed (unregistered) handle is a safe no-op too.
  const Gauge unbound;
  unbound.set(1.0);
  EXPECT_EQ(unbound.id(), kInvalidMetric);
}

TEST_F(MetricsTest, CounterAccumulates) {
  // Counts live in the always-on block, not the registry: they advance
  // with telemetry off, and the registry never lists them.
  set_enabled(false);
  sim::reset_hotpath_counters();
  ++sim::hotpath_counters().drops_queue_full;
  sim::hotpath_counters().drops_queue_full += 9;
  sim::flush_hotpath_counters();
  ++sim::hotpath_counters().drops_queue_full;  // the unflushed block counts too
  RunManifest manifest;
  manifest.hotpath = sim::aggregated_hotpath_counters();
  EXPECT_EQ(manifest.hotpath.drops_queue_full, 11u);
  std::ostringstream os;
  write_manifest(os, manifest);
  EXPECT_NE(os.str().find("\"drops_queue_full\": 11"), std::string::npos);
  set_enabled(true);
  for (const auto& m : metrics_snapshot()) EXPECT_NE(m.name, "net.drops.queue_full");
  sim::reset_hotpath_counters();
}

TEST_F(MetricsTest, GaugeTracksMinMaxLastAndMean) {
  const Gauge g{"test.gauge"};
  g.set(4.0);
  g.set(1.0);
  g.set(7.0);
  const auto snap = find("test.gauge");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->kind, MetricKind::Gauge);
  EXPECT_EQ(snap->count, 3u);
  EXPECT_DOUBLE_EQ(snap->min, 1.0);
  EXPECT_DOUBLE_EQ(snap->max, 7.0);
  EXPECT_DOUBLE_EQ(snap->last, 7.0);
  EXPECT_DOUBLE_EQ(snap->mean(), 4.0);
}

TEST_F(MetricsTest, HistogramBucketMath) {
  // Bucket 0 holds v < 1; bucket i holds [2^(i-1), 2^i).
  EXPECT_EQ(histogram_bucket(0.0), 0u);
  EXPECT_EQ(histogram_bucket(0.5), 0u);
  EXPECT_EQ(histogram_bucket(1.0), 1u);
  EXPECT_EQ(histogram_bucket(1.9), 1u);
  EXPECT_EQ(histogram_bucket(2.0), 2u);
  EXPECT_EQ(histogram_bucket(3.0), 2u);
  EXPECT_EQ(histogram_bucket(4.0), 3u);
  EXPECT_EQ(histogram_bucket(1024.0), 11u);
  EXPECT_DOUBLE_EQ(histogram_bucket_floor(0), 0.0);
  EXPECT_DOUBLE_EQ(histogram_bucket_floor(1), 1.0);
  EXPECT_DOUBLE_EQ(histogram_bucket_floor(2), 2.0);
  EXPECT_DOUBLE_EQ(histogram_bucket_floor(11), 1024.0);
}

TEST_F(MetricsTest, HistogramObservationsLandInBuckets) {
  const Histogram h{"test.hist"};
  h.observe(0.2);
  h.observe(3.0);
  h.observe(3.5);
  const auto snap = find("test.hist");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->kind, MetricKind::Histogram);
  EXPECT_EQ(snap->count, 3u);
  EXPECT_EQ(snap->buckets[0], 1u);
  EXPECT_EQ(snap->buckets[2], 2u);
  EXPECT_DOUBLE_EQ(snap->min, 0.2);
  EXPECT_DOUBLE_EQ(snap->max, 3.5);
  EXPECT_DOUBLE_EQ(snap->sum, 6.7);
}

TEST_F(MetricsTest, ThreadBlocksMergeOnFlush) {
  // Sweep workers record on their own threads; every observation lands
  // in the one aggregate with no per-thread flush.
  const Histogram h{"test.threads.hist"};
  h.observe(5.0);  // the main thread's observation counts too
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&h] {
      for (int i = 0; i < 100; ++i) h.observe(2.0);
    });
  }
  for (auto& w : workers) w.join();
  const auto hist = find("test.threads.hist");
  ASSERT_TRUE(hist.has_value());
  EXPECT_EQ(hist->count, 401u);
  EXPECT_EQ(hist->buckets[2], 400u);
  EXPECT_EQ(hist->buckets[3], 1u);
  EXPECT_DOUBLE_EQ(hist->sum, 805.0);
}

TEST_F(MetricsTest, ResetZeroesValuesButKeepsRegistrations) {
  const Gauge g{"test.reset.gauge"};
  g.set(3.0);
  reset_metrics();
  const auto snap = find("test.reset.gauge");
  ASSERT_TRUE(snap.has_value());  // the name survives
  EXPECT_EQ(snap->count, 0u);
  g.set(1.0);  // the old handle still works
  EXPECT_EQ(find("test.reset.gauge")->count, 1u);
}

TEST_F(MetricsTest, SnapshotIsSortedByName) {
  (void)register_metric("test.zz", MetricKind::Gauge);
  (void)register_metric("test.aa", MetricKind::Histogram);
  const auto snaps = metrics_snapshot();
  for (std::size_t i = 1; i < snaps.size(); ++i) {
    EXPECT_LT(snaps[i - 1].name, snaps[i].name);
  }
}

}  // namespace
}  // namespace corelite::telemetry
