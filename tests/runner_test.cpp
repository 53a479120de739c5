// Sweep-runner tests: thread pool, grid expansion, spec factory, the
// aggregator's scheduling-independence, and the headline determinism
// contract — parallel execution is bit-identical to serial.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "runner/sweep.h"
#include "runner/thread_pool.h"
#include "stats/aggregate.h"

namespace rn = corelite::runner;
namespace sc = corelite::scenario;
namespace st = corelite::stats;

TEST(ThreadPool, RunsEverySubmittedJob) {
  std::atomic<int> count{0};
  {
    rn::ThreadPool pool{4};
    for (int i = 0; i < 100; ++i) {
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
    EXPECT_EQ(count.load(), 100);
  }
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    rn::ThreadPool pool{2};
    for (int i = 0; i < 50; ++i) {
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    // No wait_idle: the destructor must still run everything queued.
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ZeroThreadsIsFloorToOne) {
  std::atomic<int> count{0};
  {
    rn::ThreadPool pool{0};
    pool.submit([&count] { ++count; });
    pool.wait_idle();
  }
  EXPECT_EQ(count.load(), 1);
}

TEST(SweepGrid, ExpandsScenarioMajorWithDerivedSeeds) {
  rn::SweepGrid grid;
  grid.scenarios = {"fig5", "fig7"};
  grid.mechanisms = {sc::Mechanism::Corelite, sc::Mechanism::Csfq};
  grid.repeats = 3;
  grid.base_seed = 42;
  const auto runs = rn::expand_grid(grid);
  ASSERT_EQ(runs.size(), 2u * 2u * 3u);

  // Scenario-major, then mechanism, then repeat.
  EXPECT_EQ(runs[0].scenario, "fig5");
  EXPECT_EQ(runs[0].mechanism, sc::Mechanism::Corelite);
  EXPECT_EQ(runs[3].mechanism, sc::Mechanism::Csfq);
  EXPECT_EQ(runs[6].scenario, "fig7");

  // Repeat k shares its seed across every cell (paired comparisons)...
  EXPECT_EQ(runs[0].seed, runs[3].seed);
  EXPECT_EQ(runs[0].seed, runs[6].seed);
  EXPECT_EQ(runs[0].seed, rn::derive_seed(42, 0));
  // ...and seeds differ across repeats.
  std::set<std::uint64_t> seeds;
  for (std::size_t rep = 0; rep < 3; ++rep) seeds.insert(runs[rep].seed);
  EXPECT_EQ(seeds.size(), 3u);
}

TEST(SweepGrid, BuildSpecAppliesOverrides) {
  rn::RunDescriptor d;
  d.scenario = "fig5";
  d.mechanism = sc::Mechanism::Csfq;
  d.seed = 7;
  d.duration_sec = 25.0;
  const auto spec = rn::build_spec(d);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->mechanism, sc::Mechanism::Csfq);
  EXPECT_EQ(spec->seed, 7u);
  EXPECT_DOUBLE_EQ(spec->duration.sec(), 25.0);

  d.num_flows = 6;
  const auto grown = rn::build_spec(d);
  ASSERT_TRUE(grown.has_value());
  EXPECT_EQ(grown->num_flows, 6u);
  ASSERT_EQ(grown->weights.size(), 6u);
  EXPECT_TRUE(grown->activity.empty());
}

TEST(SweepGrid, BuildSpecRejectsBadInput) {
  rn::RunDescriptor d;
  d.scenario = "no-such-figure";
  EXPECT_FALSE(rn::build_spec(d).has_value());

  d.scenario = "fig5";  // 10 flows
  d.weights = {1.0, 2.0};
  EXPECT_FALSE(rn::build_spec(d).has_value());
}

TEST(SweepAggregator, SnapshotIsInsertionOrderIndependent) {
  // Two aggregators fed the same samples in different (simulated
  // thread-completion) orders must emit bit-identical statistics.
  st::SweepAggregator forward;
  st::SweepAggregator reversed;
  const double values[] = {0.97, 1.03, 0.91, 1.11, 0.99};
  for (std::uint64_t i = 0; i < 5; ++i) forward.add("cell", i, "jain", values[i]);
  for (std::uint64_t i = 5; i-- > 0;) reversed.add("cell", i, "jain", values[i]);

  const auto a = forward.snapshot();
  const auto b = reversed.snapshot();
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  ASSERT_EQ(a[0].metrics.size(), 1u);
  // Bit-for-bit, not approximate: replaying in run_index order makes
  // the float fold order canonical.
  EXPECT_EQ(a[0].metrics[0].acc.mean(), b[0].metrics[0].acc.mean());
  EXPECT_EQ(a[0].metrics[0].acc.stddev(), b[0].metrics[0].acc.stddev());
  EXPECT_EQ(a[0].metrics[0].acc.min(), b[0].metrics[0].acc.min());
  EXPECT_EQ(a[0].metrics[0].acc.max(), b[0].metrics[0].acc.max());
}

TEST(Accumulator, WelfordMatchesClosedForm) {
  st::Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.stddev(), 2.13809, 1e-5);  // sample stddev, n-1
  EXPECT_NEAR(acc.ci95_half_width(), 1.96 * 2.13809 / std::sqrt(8.0), 1e-5);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

namespace {

std::vector<rn::RunDescriptor> small_grid() {
  rn::SweepGrid grid;
  grid.scenarios = {"fig5"};
  grid.mechanisms = {sc::Mechanism::Corelite, sc::Mechanism::Csfq};
  grid.repeats = 2;
  grid.base_seed = 3;
  grid.duration_sec = 10.0;  // short: this runs under TSan in CI
  return rn::expand_grid(grid);
}

}  // namespace

TEST(SweepRunner, ParallelIsBitIdenticalToSerial) {
  const auto runs = small_grid();
  rn::SweepRunner serial{1};
  rn::SweepRunner wide{4};
  const auto a = serial.run(runs);
  const auto b = wide.run(runs);
  ASSERT_EQ(a.size(), runs.size());
  ASSERT_EQ(b.size(), runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    ASSERT_TRUE(a[i].ok);
    ASSERT_TRUE(b[i].ok);
    EXPECT_EQ(a[i].index, i);
    EXPECT_EQ(b[i].index, i);
    // The digest witnesses every per-flow counter and every rate /
    // cumulative-service sample bit-for-bit.
    EXPECT_EQ(a[i].digest, b[i].digest) << "run " << i;
    EXPECT_EQ(a[i].events, b[i].events);
    EXPECT_EQ(a[i].total_drops, b[i].total_drops);
    EXPECT_EQ(a[i].delivered, b[i].delivered);
    ASSERT_EQ(a[i].avg_rate_pps.size(), b[i].avg_rate_pps.size());
    for (std::size_t f = 0; f < a[i].avg_rate_pps.size(); ++f) {
      EXPECT_EQ(a[i].avg_rate_pps[f], b[i].avg_rate_pps[f]);
    }
  }
}

TEST(SweepRunner, SweepJsonIsByteIdenticalAcrossJobCounts) {
  const auto runs = small_grid();
  const auto render = [&runs](std::size_t jobs) {
    rn::SweepRunner runner{jobs};
    const auto results = runner.run(runs);
    st::SweepAggregator agg;
    for (const auto& r : results) rn::record_metrics(agg, r);
    st::SweepMetaJson meta;
    meta.title = "determinism";
    meta.runs = results.size();
    meta.repeats = 2;
    meta.base_seed = 3;
    std::ostringstream os;
    st::write_sweep_json(os, meta, agg.snapshot());
    return os.str();
  };
  const std::string serial = render(1);
  EXPECT_EQ(serial, render(4));
  EXPECT_NE(serial.find("\"cells\""), std::string::npos);
}

TEST(SweepRunner, ProgressReportsEveryRunExactlyOnce) {
  const auto runs = small_grid();
  rn::SweepRunner runner{4};
  std::mutex mu;
  std::set<std::size_t> seen;
  std::size_t max_done = 0;
  runner.set_progress([&](const rn::RunResult& r, std::size_t done, std::size_t total) {
    const std::lock_guard<std::mutex> lock{mu};
    EXPECT_TRUE(seen.insert(r.index).second);
    EXPECT_EQ(total, runs.size());
    max_done = std::max(max_done, done);
  });
  const auto results = runner.run(runs);
  EXPECT_EQ(seen.size(), runs.size());
  EXPECT_EQ(max_done, runs.size());
  EXPECT_EQ(results.size(), runs.size());
}

TEST(ThreadPool, WorkerIndexIsStablePerThreadAndInvalidOutside) {
  EXPECT_EQ(rn::ThreadPool::current_worker_index(), rn::ThreadPool::kNotAWorker);
  std::mutex mu;
  std::set<std::size_t> indices;
  {
    rn::ThreadPool pool{3};
    for (int i = 0; i < 30; ++i) {
      pool.submit([&] {
        const std::size_t idx = rn::ThreadPool::current_worker_index();
        const std::lock_guard<std::mutex> lock{mu};
        indices.insert(idx);
      });
    }
    pool.wait_idle();
  }
  // Every observed index names one of the pool's threads.
  EXPECT_FALSE(indices.empty());
  EXPECT_LE(indices.size(), 3u);
  for (const std::size_t idx : indices) EXPECT_LT(idx, 3u);
}

TEST(SweepRunner, CombinedDigestIsOrderCanonicalAndJobIndependent) {
  const auto runs = small_grid();
  rn::SweepRunner serial{1};
  rn::SweepRunner wide{4};
  const auto a = serial.run(runs);
  const auto b = wide.run(runs);
  // One digest for the whole sweep, identical at any --jobs: this is
  // the value the manifest records and check_telemetry.py verifies.
  EXPECT_EQ(rn::combined_digest(a), rn::combined_digest(b));
  // And it folds the per-run digests, so any single-run change moves it.
  auto c = a;
  c[0].digest ^= 1;
  EXPECT_NE(rn::combined_digest(a), rn::combined_digest(c));
}

TEST(SweepRunner, ResultsCarryWallClockTelemetryFields) {
  const auto runs = small_grid();
  rn::SweepRunner runner{2};
  const auto results = runner.run(runs);
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok);
    EXPECT_LT(r.worker, 2u);
    EXPECT_GE(r.wall_start_ms, 0.0);
    EXPECT_GT(r.wall_ms, 0.0);
  }
}

TEST(SweepRunner, HeartbeatEmitsFinalProgressLine) {
  const auto runs = small_grid();
  rn::SweepRunner runner{2};
  std::ostringstream hb;
  // Long interval: only the guaranteed final line fires, keeping the
  // assertion deterministic.
  runner.set_heartbeat(&hb, 60.0);
  const auto results = runner.run(runs);
  EXPECT_EQ(results.size(), runs.size());
  const std::string out = hb.str();
  EXPECT_NE(out.find("[sweep]"), std::string::npos);
  EXPECT_NE(out.find("4/4 done"), std::string::npos);
}

TEST(SweepRunner, FailedBuildIsReportedNotCrashed) {
  std::vector<rn::RunDescriptor> runs(1);
  runs[0].scenario = "bogus";
  rn::SweepRunner runner{2};
  const auto results = runner.run(runs);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok);
}

TEST(Scenario, MechanismNameRoundTrips) {
  for (const sc::MechanismRow& row : sc::kMechanisms) {
    EXPECT_EQ(sc::mechanism_name(row.mechanism), row.name);
    const auto back = sc::mechanism_from_name(row.name);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, row.mechanism);
  }
  EXPECT_FALSE(sc::mechanism_from_name("not-a-mechanism").has_value());
}

TEST(Scenario, ScenarioByNameMatchesFactories) {
  const auto spec = sc::scenario_by_name("fig5", sc::Mechanism::Wfq);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->mechanism, sc::Mechanism::Wfq);
  EXPECT_EQ(spec->num_flows, 10u);
  EXPECT_FALSE(sc::scenario_by_name("fig99", sc::Mechanism::Wfq).has_value());
}
