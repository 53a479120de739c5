// Parallel-engine determinism tests: the LP partitioner, the thread
// budget, and the digest contract of the conservative parallel engine.
//
// The contract under test (see docs/architecture.md, "Parallel
// simulation"):
//   1. --lp 1 runs the legacy serial engine and is bit-identical to a
//      build that has never heard of LPs (the golden digests enforce
//      the absolute values; here we check lp=1 == lp-unset).
//   2. For N >= 2 the digest is a pure function of (spec, effective LP
//      count): invariant in the number of OS threads driving the LPs,
//      because event ORDER is fixed by the barrier protocol and the
//      src-ascending mailbox drain, not by thread scheduling.
//   3. Requests beyond what the topology supports clamp (lp 8 on the
//      3-core paper chain -> 4 LPs) and yield the clamped count's
//      digest.
//   4. A topology whose cut links have zero propagation delay has no
//      usable lookahead: the run falls back to the serial engine and
//      must match the plain serial digest exactly.
// Note what is NOT claimed: digest(lp=N>=2) == digest(serial).  LPs
// use derived per-LP RNG streams, so the serial and partitioned runs
// are different (equally valid) sample paths by design.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "runner/sweep.h"
#include "scenario/scenario.h"
#include "sim/hotpath.h"
#include "sim/parallel/lp_partition.h"
#include "sim/parallel/lp_runtime.h"
#include "sim/parallel/thread_budget.h"

namespace rn = corelite::runner;
namespace sc = corelite::scenario;
namespace par = corelite::sim::par;

namespace {

// Chain graph a-b-c-... with per-edge delays (seconds) and bottleneck flags.
par::LpGraph chain(const std::vector<double>& delays, const std::vector<bool>& bottleneck) {
  par::LpGraph g;
  g.nodes = delays.size() + 1;
  for (std::uint32_t i = 0; i < delays.size(); ++i) {
    g.edges.push_back({i, i + 1, delays[i], bottleneck[i]});
  }
  return g;
}

std::uint64_t digest_of(const std::string& scenario, double duration_sec, std::size_t lp,
                        std::size_t lp_threads) {
  rn::RunDescriptor d;
  d.scenario = scenario;
  d.seed = 42;
  d.duration_sec = duration_sec;
  d.lp = lp;
  d.lp_threads = lp_threads;
  const rn::RunResult r = rn::execute_run(d);
  EXPECT_TRUE(r.ok) << scenario << " failed";
  return r.digest;
}

}  // namespace

// ---------------------------------------------------------------- partitioner

TEST(LpPartition, TrivialRequestIsSerialPlan) {
  const auto g = chain({0.04, 0.04, 0.04}, {true, true, true});
  const auto plan = par::partition_lp_graph(g, 1);
  EXPECT_EQ(plan.lp_count, 1u);
  EXPECT_EQ(plan.cut_links, 0u);
  EXPECT_FALSE(plan.zero_lookahead_fallback);
  ASSERT_EQ(plan.lp_of_node.size(), g.nodes);
  for (auto lp : plan.lp_of_node) EXPECT_EQ(lp, 0u);
}

TEST(LpPartition, ChainCutsOnBottlenecksWithMinDelayLookahead) {
  // 5-node chain; only the middle two links are bottlenecks.  A 2-way
  // partition should cut exactly one link, prefer a bottleneck, and
  // report that link's delay as the lookahead.
  const auto g = chain({0.01, 0.04, 0.05, 0.01}, {false, true, true, false});
  const auto plan = par::partition_lp_graph(g, 2);
  EXPECT_EQ(plan.lp_count, 2u);
  EXPECT_EQ(plan.cut_links, 1u);
  EXPECT_EQ(plan.cut_bottlenecks, 1u);
  EXPECT_FALSE(plan.zero_lookahead_fallback);
  // The cut landed on one of the 40/50 ms bottlenecks, never a 10 ms edge.
  EXPECT_GE(plan.lookahead.sec(), 0.04 - 1e-12);
  // Contiguity: LP ids are nondecreasing along the chain.
  for (std::size_t i = 1; i < plan.lp_of_node.size(); ++i) {
    EXPECT_LE(plan.lp_of_node[i - 1], plan.lp_of_node[i]);
  }
}

TEST(LpPartition, RequestClampsToNodeCount) {
  const auto g = chain({0.04, 0.04, 0.04}, {true, true, true});
  const auto plan = par::partition_lp_graph(g, 16);
  EXPECT_EQ(plan.requested, 16u);
  EXPECT_LE(plan.lp_count, g.nodes);
  EXPECT_GE(plan.lp_count, 2u);
}

TEST(LpPartition, ZeroDelayCutFallsBackToSerial) {
  // Every edge has zero delay: any cut has zero lookahead, so the plan
  // must collapse to one LP and flag the fallback for the caller's
  // warning message.
  const auto g = chain({0.0, 0.0, 0.0}, {true, true, true});
  const auto plan = par::partition_lp_graph(g, 2);
  EXPECT_EQ(plan.lp_count, 1u);
  EXPECT_TRUE(plan.zero_lookahead_fallback);
  EXPECT_EQ(plan.lookahead, corelite::sim::TimeDelta::zero());
}

TEST(LpPartition, PlanIsDeterministic) {
  const auto g = chain({0.02, 0.04, 0.03, 0.04, 0.02}, {false, true, false, true, false});
  const auto p1 = par::partition_lp_graph(g, 3);
  const auto p2 = par::partition_lp_graph(g, 3);
  EXPECT_EQ(p1.lp_of_node, p2.lp_of_node);
  EXPECT_EQ(p1.lookahead, p2.lookahead);
  EXPECT_EQ(p1.cut_links, p2.cut_links);
}

// --------------------------------------------------------------- thread budget

TEST(ThreadBudget, AcquireNeverExceedsHardwareAndReleases) {
  auto& budget = par::ThreadBudget::instance();
  const std::size_t hw = par::ThreadBudget::hardware_threads();
  const std::size_t before = budget.used();
  const std::size_t got = budget.acquire(1000);
  EXPECT_LE(budget.used(), std::max(hw, before + 0));  // never grants past hw
  EXPECT_EQ(budget.used(), before + got);
  budget.release(got);
  EXPECT_EQ(budget.used(), before);
  // A second acquire after release grants the same amount (no leak).
  const std::size_t again = budget.acquire(1000);
  EXPECT_EQ(again, got);
  budget.release(again);
}

// ------------------------------------------------------------ LP seed streams

TEST(LpSeed, DerivedSeedsArePinned) {
  // Every --lp N digest rests on these per-LP streams, so their values
  // are pinned: a changed tag constant fails here, not in a digest.
  EXPECT_EQ(par::derive_lp_seed(1, 0), 0x109e92bc467ba170ULL);
  EXPECT_EQ(par::derive_lp_seed(42, 3), 0x83fbd323a59161d5ULL);
  EXPECT_EQ(par::derive_lp_seed(0xdeadbeefULL, 7), 0xd48c5deb2dcf8b1eULL);
}

// ------------------------------------------------------------ digest contract

TEST(ParallelDeterminism, LpOneMatchesLegacySerial) {
  // d.lp = 0 keeps the scenario default (serial); d.lp = 1 forces the
  // serial engine through the LP plumbing.  Both must produce the same
  // digest -- the golden_determinism_test pins its absolute value.
  EXPECT_EQ(digest_of("fig5", 10.0, 0, 0), digest_of("fig5", 10.0, 1, 0));
}

TEST(ParallelDeterminism, PartitionedDigestDiffersFromSerialByDesign) {
  // Documents contract point "N >= 2 is a different sample path": the
  // partitioned run re-seeds per LP, so matching the serial digest
  // would be a coincidence, not a requirement.
  EXPECT_NE(digest_of("fig5", 10.0, 1, 0), digest_of("fig5", 10.0, 2, 1));
}

TEST(ParallelDeterminism, ThreadInvarianceOnPaperTopology) {
  for (const std::size_t lp : {std::size_t{2}, std::size_t{4}}) {
    const std::uint64_t one = digest_of("fig5", 10.0, lp, 1);
    const std::uint64_t four = digest_of("fig5", 10.0, lp, 4);
    EXPECT_EQ(one, four) << "digest depends on thread count at lp=" << lp;
    // And on the auto (ThreadBudget-clamped) thread count:
    EXPECT_EQ(one, digest_of("fig5", 10.0, lp, 0));
  }
}

TEST(ParallelDeterminism, ThreadInvarianceOnFig7) {
  EXPECT_EQ(digest_of("fig7", 10.0, 2, 1), digest_of("fig7", 10.0, 2, 4));
}

TEST(ParallelDeterminism, RequestBeyondTopologyClampsToSameDigest) {
  // The paper chain has 4 core routers -> at most 4 LPs.  --lp 8 clamps
  // and must land on exactly the --lp 4 digest.
  EXPECT_EQ(digest_of("fig5", 10.0, 8, 1), digest_of("fig5", 10.0, 4, 1));
}

TEST(ParallelDeterminism, ThreadInvarianceOnGeneratedTopologies) {
  // One scenario per generator family: parking-lot, fat-tree, ISP-like.
  for (const char* scen : {"gen-pl8-300", "gen-ft4-300", "gen-isp16-300"}) {
    EXPECT_EQ(digest_of(scen, 6.0, 2, 1), digest_of(scen, 6.0, 2, 4))
        << "digest depends on thread count for " << scen;
  }
}

TEST(ParallelDeterminism, ZeroLookaheadFallsBackToSerialDigest) {
  // Adversarial topology: zero core link delay leaves no conservative
  // window, so --lp 2 must warn and run the serial engine -- producing
  // the serial digest exactly, not a diverged parallel one.
  sc::ScenarioSpec spec;
  spec.mechanism = sc::Mechanism::Corelite;
  spec.num_flows = 8;
  spec.weights.assign(8, 1.0);
  spec.duration = corelite::sim::SimTime::seconds(5);
  spec.seed = 42;
  spec.topology.link_delay = corelite::sim::TimeDelta::zero();

  sc::ScenarioSpec serial = spec;
  serial.lp = 1;
  sc::ScenarioSpec parallel = spec;
  parallel.lp = 2;

  const auto rs = sc::run_paper_scenario(serial);
  const auto rp = sc::run_paper_scenario(parallel);
  EXPECT_EQ(rn::result_digest(rs), rn::result_digest(rp));
}

TEST(ParallelDeterminism, LpCountersAdvanceInPartitionedRuns) {
  corelite::sim::reset_hotpath_counters();
  (void)digest_of("fig5", 5.0, 2, 1);
  const auto c = corelite::sim::aggregated_hotpath_counters();
  EXPECT_GT(c.lp_barriers, 0u);
  EXPECT_GT(c.cross_lp_events, 0u);
  EXPECT_GT(c.mailbox_flushes, 0u);
  EXPECT_GT(c.lookahead_ns, 0u);

  // A serial run must leave the LP counters untouched.
  corelite::sim::reset_hotpath_counters();
  (void)digest_of("fig5", 5.0, 1, 0);
  const auto s = corelite::sim::aggregated_hotpath_counters();
  EXPECT_EQ(s.lp_barriers, 0u);
  EXPECT_EQ(s.cross_lp_events, 0u);
}

TEST(ParallelDeterminism, DigestInvariantUnderWheelElision) {
  // The wheel/heap tiering must never reorder same-time events, so
  // turning the wheel off cannot change a partitioned run's digest.
  // The knob is read at construction time, so setenv between runs
  // takes effect in-process.
  const std::uint64_t base = digest_of("fig5", 8.0, 2, 1);
  ::setenv("CORELITE_NO_WHEEL", "1", 1);
  const std::uint64_t no_wheel = digest_of("fig5", 8.0, 2, 1);
  ::unsetenv("CORELITE_NO_WHEEL");
  EXPECT_EQ(base, no_wheel) << "timing-wheel elision changes the lp=2 digest";
}

TEST(ParallelDeterminism, RepeatedPartitionedRunsAreBitStable) {
  // Same spec, same LP count, three runs with different thread counts
  // interleaved -- guards against any hidden run-to-run state in the
  // runtime (mailbox reuse, pool reuse, budget bleed).
  const std::uint64_t a = digest_of("fig5", 8.0, 2, 2);
  const std::uint64_t b = digest_of("fig5", 8.0, 2, 1);
  const std::uint64_t c = digest_of("fig5", 8.0, 2, 2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}
