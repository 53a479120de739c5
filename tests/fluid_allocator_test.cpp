// Water-filling allocator (sim/fluid/allocator.h) against closed-form
// weighted max-min solutions and against the definition itself.
//
// The allocator is the repository's one max-min oracle (fluid
// certification, the fairness auditor, scenario::ideal_rates_at), so its
// own correctness has to come from somewhere *other* than the
// simulation it gates: every fixed expectation here is a hand-derivable
// fixed point — the single-bottleneck proportional split, the
// parking-lot topology's textbook allocation, the paper's own §4.1
// numbers, demand caps redistributing freed capacity, minimum-rate
// contracts — with exact arithmetic chosen so EXPECT_NEAR tolerances are
// pure floating-point slack, not model slack.  A property test then
// checks seeded random instances against the definition of weighted
// max-min fairness with minimum rates, not against a second solver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "sim/fluid/allocator.h"
#include "sim/random.h"

namespace corelite::sim::fluid {
namespace {

constexpr double kEps = 1e-9;
constexpr double kInf = std::numeric_limits<double>::infinity();

AllocFlow flow(double weight, double demand, std::vector<std::uint32_t> links,
               double min_rate = 0.0) {
  AllocFlow f;
  f.weight = weight;
  f.demand = demand;
  f.links = std::move(links);
  f.min_rate = min_rate;
  return f;
}

TEST(WaterFill, SingleBottleneckEqualWeights) {
  // Four unit-weight flows on one link of capacity 100: 25 each.
  const std::vector<double> caps{100.0};
  std::vector<AllocFlow> flows(4, flow(1.0, kInf, {0}));
  const auto r = water_fill(caps, flows);
  ASSERT_EQ(r.size(), 4u);
  for (double v : r) EXPECT_NEAR(v, 25.0, kEps);
}

TEST(WaterFill, SingleBottleneckWeighted) {
  // Weights 1:2:3:4 on capacity 100 split proportionally: 10/20/30/40.
  const std::vector<double> caps{100.0};
  std::vector<AllocFlow> flows{flow(1.0, kInf, {0}), flow(2.0, kInf, {0}),
                               flow(3.0, kInf, {0}), flow(4.0, kInf, {0})};
  const auto r = water_fill(caps, flows);
  EXPECT_NEAR(r[0], 10.0, kEps);
  EXPECT_NEAR(r[1], 20.0, kEps);
  EXPECT_NEAR(r[2], 30.0, kEps);
  EXPECT_NEAR(r[3], 40.0, kEps);
}

TEST(WaterFill, ParkingLot) {
  // The classic two-link parking lot: A crosses both links, B only link
  // 0, C only link 1, caps {12, 6}.  Link 1 saturates first at level 3
  // (A and C frozen at 3); B then fills link 0's remainder: 12 - 3 = 9.
  const std::vector<double> caps{12.0, 6.0};
  std::vector<AllocFlow> flows{flow(1.0, kInf, {0, 1}), flow(1.0, kInf, {0}),
                               flow(1.0, kInf, {1})};
  const auto r = water_fill(caps, flows);
  EXPECT_NEAR(r[0], 3.0, kEps);
  EXPECT_NEAR(r[1], 9.0, kEps);
  EXPECT_NEAR(r[2], 3.0, kEps);
}

TEST(WaterFill, DemandCapRedistributes) {
  // Three unit-weight flows on capacity 90, one capped at 10: the cap
  // binds below the fair share (30), and the freed 20 re-fills the
  // other two up to 40 each.
  const std::vector<double> caps{90.0};
  std::vector<AllocFlow> flows{flow(1.0, 10.0, {0}), flow(1.0, kInf, {0}),
                               flow(1.0, kInf, {0})};
  const auto r = water_fill(caps, flows);
  EXPECT_NEAR(r[0], 10.0, kEps);
  EXPECT_NEAR(r[1], 40.0, kEps);
  EXPECT_NEAR(r[2], 40.0, kEps);
}

TEST(WaterFill, ZeroDemandGetsZeroAndConsumesNothing) {
  // A zero-demand flow neither receives rate nor occupies the link.
  const std::vector<double> caps{50.0};
  std::vector<AllocFlow> flows{flow(1.0, 0.0, {0}), flow(1.0, kInf, {0})};
  const auto r = water_fill(caps, flows);
  EXPECT_NEAR(r[0], 0.0, kEps);
  EXPECT_NEAR(r[1], 50.0, kEps);
}

TEST(WaterFill, UnconstrainedFlowGetsItsDemand) {
  // No links: only the demand cap binds; infinite demand would be
  // unbounded, so the allocator must return the demand for finite ones
  // (0 included).  A link-less flow takes nothing from the one link.
  const std::vector<double> caps{10.0};
  std::vector<AllocFlow> flows{flow(1.0, 7.5, {}), flow(1.0, 0.0, {}), flow(1.0, kInf, {0})};
  const auto r = water_fill(caps, flows);
  EXPECT_NEAR(r[0], 7.5, kEps);
  EXPECT_EQ(r[1], 0.0);
  EXPECT_NEAR(r[2], 10.0, kEps);
}

TEST(WaterFill, WeightedParkingLot) {
  // Parking lot with weight 2 on the long flow, caps {12, 6}.  Link 1:
  // levels 2w vs 1w saturate at normalized level 2 (A = 4, C = 2); B
  // then takes link 0's remainder 12 - 4 = 8.
  const std::vector<double> caps{12.0, 6.0};
  std::vector<AllocFlow> flows{flow(2.0, kInf, {0, 1}), flow(1.0, kInf, {0}),
                               flow(1.0, kInf, {1})};
  const auto r = water_fill(caps, flows);
  EXPECT_NEAR(r[0], 4.0, kEps);
  EXPECT_NEAR(r[1], 8.0, kEps);
  EXPECT_NEAR(r[2], 2.0, kEps);
}

TEST(WaterFill, UncongestedLinkLeavesDemandsBinding) {
  // Total demand below capacity: everyone simply gets their demand.
  const std::vector<double> caps{1000.0};
  std::vector<AllocFlow> flows{flow(1.0, 30.0, {0}), flow(3.0, 70.0, {0}),
                               flow(2.0, 50.0, {0})};
  const auto r = water_fill(caps, flows);
  EXPECT_NEAR(r[0], 30.0, kEps);
  EXPECT_NEAR(r[1], 70.0, kEps);
  EXPECT_NEAR(r[2], 50.0, kEps);
}

TEST(WaterFill, EmptyInputs) {
  EXPECT_TRUE(water_fill({}, {}).empty());
  const auto r = water_fill({10.0}, {});
  EXPECT_TRUE(r.empty());
}

TEST(WaterFill, ConservationAndFeasibility) {
  // Structural invariants on a mixed case: no link over capacity, no
  // flow over demand, and every saturated link's capacity fully used.
  const std::vector<double> caps{40.0, 25.0, 60.0};
  std::vector<AllocFlow> flows{
      flow(1.0, kInf, {0, 1}),  flow(2.0, kInf, {1, 2}), flow(1.0, 12.0, {0}),
      flow(1.5, kInf, {2}),     flow(0.5, kInf, {0, 2})};
  const auto r = water_fill(caps, flows);
  ASSERT_EQ(r.size(), flows.size());
  std::vector<double> load(caps.size(), 0.0);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_LE(r[i], flows[i].demand + kEps);
    EXPECT_GE(r[i], 0.0);
    for (auto l : flows[i].links) load[l] += r[i];
  }
  for (std::size_t l = 0; l < caps.size(); ++l) EXPECT_LE(load[l], caps[l] + 1e-6);
}

// ---------------------------------------------------------------------------
// Minimum-rate contracts (Vandalore et al.'s general weighted fairness):
// each flow gets its MCR plus a weighted share of the excess.

TEST(WaterFill, MinimumRatePlusWeightedShareOfTheExcess) {
  // Capacity 100, flow 0 holds a 40 contract: the 60 left over splits
  // 1:1:2, so the rates are 40 + 15, 15 and 30.
  const std::vector<double> caps{100.0};
  std::vector<AllocFlow> flows{flow(1.0, kInf, {0}, 40.0), flow(1.0, kInf, {0}),
                               flow(2.0, kInf, {0})};
  const auto r = water_fill(caps, flows);
  EXPECT_NEAR(r[0], 55.0, kEps);
  EXPECT_NEAR(r[1], 15.0, kEps);
  EXPECT_NEAR(r[2], 30.0, kEps);
}

TEST(WaterFill, ContractAboveDemandGrantsOnlyTheDemand) {
  // A 50 contract on a flow that only offers 20: it gets 20, and the
  // other flow fills the remaining 80.
  const std::vector<double> caps{100.0};
  std::vector<AllocFlow> flows{flow(1.0, 20.0, {0}, 50.0), flow(1.0, kInf, {0})};
  const auto r = water_fill(caps, flows);
  EXPECT_NEAR(r[0], 20.0, kEps);
  EXPECT_NEAR(r[1], 80.0, kEps);
}

TEST(WaterFill, OversubscribedContractsGetTheirContractAndNothingMore) {
  // Contracts of 60 + 60 on a link of 100: each contracted flow gets
  // its contract, the uncontracted one nothing, and the other link's
  // flow is unaffected.
  const std::vector<double> caps{100.0, 100.0};
  std::vector<AllocFlow> flows{flow(1.0, kInf, {0}, 60.0), flow(2.0, kInf, {0}, 60.0),
                               flow(1.0, kInf, {0}), flow(1.0, kInf, {1})};
  const auto r = water_fill(caps, flows);
  EXPECT_EQ(r[0], 60.0);
  EXPECT_EQ(r[1], 60.0);
  EXPECT_EQ(r[2], 0.0);
  EXPECT_NEAR(r[3], 100.0, kEps);
}

// ---------------------------------------------------------------------------
// The definition, on seeded random instances: 1-6 links, 1-12 flows,
// random weights and link subsets (empty included), demand caps that
// include 0 and infinity, and minimum rates whose sum on every link
// stays within its capacity.  The allocation must be
//   - feasible on every link,
//   - at least min(mcr, demand) and at most the demand for every flow,
//   - and max-min in the excess: every flow below its demand crosses a
//     saturated link on which its (r - mcr) / w is the largest.

TEST(WaterFill, SatisfiesTheWeightedMaxMinDefinitionOnRandomInstances) {
  constexpr int kInstances = 2000;
  constexpr double kRel = 1e-7;  // the allocator freezes near-ties within 1e-9
  sim::Rng rng{20000917};
  int capped = 0;
  int contracted = 0;
  for (int inst = 0; inst < kInstances; ++inst) {
    const auto m = static_cast<std::size_t>(rng.uniform_int(1, 6));
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 12));
    std::vector<double> caps(m);
    for (double& c : caps) c = rng.uniform(10.0, 1000.0);
    std::vector<AllocFlow> flows(n);
    for (AllocFlow& f : flows) {
      f.weight = rng.uniform(0.25, 4.0);
      for (std::uint32_t l = 0; l < m; ++l) {
        if (rng.bernoulli(0.5)) f.links.push_back(l);
      }
      const double u = rng.uniform01();
      f.demand = u < 0.1 ? 0.0 : u < 0.55 ? kInf : rng.uniform(0.0, 600.0);
      if (rng.bernoulli(0.4)) {
        // At most cap / n per flow keeps every link's contract sum
        // within its capacity.
        double room = 600.0;
        for (std::uint32_t l : f.links) room = std::min(room, caps[l]);
        f.min_rate = rng.uniform(0.0, room / static_cast<double>(n));
      }
    }

    const std::vector<double> r = water_fill(caps, flows);
    ASSERT_EQ(r.size(), n);
    std::vector<double> load(m, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::uint32_t l : flows[i].links) load[l] += r[i];
    }
    for (std::size_t l = 0; l < m; ++l) {
      ASSERT_LE(load[l], caps[l] * (1.0 + kRel)) << "instance " << inst << " link " << l;
    }
    auto excess_level = [&](std::size_t j) { return (r[j] - flows[j].min_rate) / flows[j].weight; };
    for (std::size_t i = 0; i < n; ++i) {
      const AllocFlow& f = flows[i];
      ASSERT_GE(r[i], std::min(f.min_rate, f.demand) * (1.0 - kRel)) << "instance " << inst;
      ASSERT_LE(r[i], f.demand * (1.0 + kRel)) << "instance " << inst;
      if (r[i] >= f.demand * (1.0 - kRel)) {
        capped += std::isfinite(f.demand) ? 1 : 0;
        continue;
      }
      contracted += f.min_rate > 0.0 ? 1 : 0;
      const double level = excess_level(i);
      bool bottlenecked = false;
      for (std::uint32_t l : f.links) {
        if (load[l] < caps[l] * (1.0 - kRel)) continue;
        bool largest = true;
        for (std::size_t j = 0; j < n && largest; ++j) {
          const auto& lj = flows[j].links;
          if (std::find(lj.begin(), lj.end(), l) == lj.end()) continue;
          largest = excess_level(j) <= level + kRel * std::max(1.0, std::abs(level));
        }
        bottlenecked = bottlenecked || largest;
      }
      ASSERT_TRUE(bottlenecked) << "instance " << inst << " flow " << i;
    }
  }
  // The generator exercises both kinds of freezing.
  EXPECT_GT(capped, 100);
  EXPECT_GT(contracted, 100);
}

// ---------------------------------------------------------------------------
// The paper's reference cases (§4.1 expected rates and small textbook
// instances), checked against the one oracle.

TEST(MaxMin, SingleLinkEqualWeights) {
  const auto r = water_fill({90.0}, {flow(1.0, kInf, {0}), flow(1.0, kInf, {0}),
                                     flow(1.0, kInf, {0})});
  for (double v : r) EXPECT_DOUBLE_EQ(v, 30.0);
}

TEST(MaxMin, SingleLinkWeighted) {
  const auto r = water_fill({120.0}, {flow(1.0, kInf, {0}), flow(2.0, kInf, {0}),
                                      flow(3.0, kInf, {0})});
  EXPECT_DOUBLE_EQ(r[0], 20.0);
  EXPECT_DOUBLE_EQ(r[1], 40.0);
  EXPECT_DOUBLE_EQ(r[2], 60.0);
}

TEST(MaxMin, BottleneckedFlowFreesOtherLink) {
  // Flow 0 crosses both links; flow 1 only link 0; flow 2 only link 1.
  // Link 0 cap 10, link 1 cap 100: flows 0 and 1 split link 0 (5 each),
  // flow 2 then takes the rest of link 1 (95).
  const auto r = water_fill({10.0, 100.0}, {flow(1.0, kInf, {0, 1}), flow(1.0, kInf, {0}),
                                            flow(1.0, kInf, {1})});
  EXPECT_DOUBLE_EQ(r[0], 5.0);
  EXPECT_DOUBLE_EQ(r[1], 5.0);
  EXPECT_DOUBLE_EQ(r[2], 95.0);
}

// The paper's Figure-2 population: flow ids 1-20, their congested links
// (0-2) and the Figure-3 weights.
std::vector<AllocFlow> paper_flows(const std::vector<std::size_t>& ids) {
  auto weight_of = [](std::size_t f) {
    if (f == 5 || f == 15) return 3.0;
    if (f == 1 || f == 11 || f == 16) return 1.0;
    return 2.0;
  };
  auto links_of = [](std::size_t f) -> std::vector<std::uint32_t> {
    if (f <= 5) return {0};
    if (f <= 8) return {0, 1};
    if (f <= 10) return {0, 1, 2};
    if (f <= 12) return {1};
    if (f <= 15) return {1, 2};
    return {2};
  };
  std::vector<AllocFlow> flows;
  for (std::size_t f : ids) flows.push_back(flow(weight_of(f), kInf, links_of(f)));
  return flows;
}

TEST(MaxMin, PaperExpectedValuesAllTwentyFlows) {
  // The paper's §4.1 calculation: with all 20 flows active every congested link
  // carries weight 20, so the share is 500/20 = 25 pkt/s per unit weight.
  std::vector<std::size_t> ids;
  for (std::size_t f = 1; f <= 20; ++f) ids.push_back(f);
  const auto r = water_fill({500.0, 500.0, 500.0}, paper_flows(ids));
  EXPECT_NEAR(r[5 - 1], 75.0, kEps);   // weight 3
  EXPECT_NEAR(r[15 - 1], 75.0, kEps);
  EXPECT_NEAR(r[1 - 1], 25.0, kEps);   // weight 1
  EXPECT_NEAR(r[11 - 1], 25.0, kEps);
  EXPECT_NEAR(r[16 - 1], 25.0, kEps);
  EXPECT_NEAR(r[2 - 1], 50.0, kEps);   // weight 2
  EXPECT_NEAR(r[9 - 1], 50.0, kEps);   // three congested links, same share
}

TEST(MaxMin, PaperExpectedValuesFifteenFlows) {
  // Without flows 1, 9, 10, 11, 16 each link carries weight 15:
  // 500/15 = 33.33 pkt/s per unit weight.
  const std::vector<std::size_t> ids{2, 3, 4, 5, 6, 7, 8, 12, 13, 14, 15, 17, 18, 19, 20};
  const auto r = water_fill({500.0, 500.0, 500.0}, paper_flows(ids));
  EXPECT_NEAR(r[3], 100.0, kEps);  // flow 5: 33.33 * 3 (paper prints 99.99)
  EXPECT_NEAR(r[10], 100.0, kEps);  // flow 15
  EXPECT_NEAR(r[0], 500.0 * 2 / 15, kEps);  // flow 2: 66.66
  EXPECT_NEAR(r[14], 500.0 * 2 / 15, kEps);  // flow 20
}

TEST(MaxMin, ConservationNeverExceedsCapacity) {
  const std::vector<double> caps{100.0, 60.0};
  const auto r = water_fill(caps, {flow(1.0, kInf, {0}), flow(2.0, kInf, {0, 1}),
                                   flow(1.5, kInf, {1}), flow(0.5, kInf, {0, 1})});
  EXPECT_LE(r[0] + r[1] + r[3], caps[0] + kEps);
  EXPECT_LE(r[1] + r[2] + r[3], caps[1] + kEps);
}

TEST(MaxMin, FlowWithNoLinksGetsZero) {
  // A flow that crosses no link is bound only by its demand, so with
  // nothing to send it gets zero and leaves the whole link to the
  // link-bound flow beside it.
  const auto r = water_fill({10.0}, {flow(1.0, 0.0, {}), flow(1.0, kInf, {0})});
  EXPECT_DOUBLE_EQ(r[0], 0.0);
  EXPECT_DOUBLE_EQ(r[1], 10.0);
}

}  // namespace
}  // namespace corelite::sim::fluid
