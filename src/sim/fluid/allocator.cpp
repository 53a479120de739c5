#include "sim/fluid/allocator.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace corelite::sim::fluid {
namespace {

// Residual weight sums below this are treated as "no flow left on the
// link"; levels within the relative slack of the round minimum freeze
// together, so FP ties cannot split one logical freezing step into an
// unbounded number of rounds.
constexpr double kWeightEps = 1e-12;
constexpr double kLevelSlack = 1e-9;

[[nodiscard]] double freeze_threshold(double level) {
  return level * (1.0 + kLevelSlack) + 1e-12;
}

}  // namespace

std::vector<double> water_fill(const std::vector<double>& link_capacities,
                               const std::vector<AllocFlow>& flows) {
  const std::size_t n = flows.size();
  const std::size_t m = link_capacities.size();
  // Each flow is granted min(min_rate, demand) up front; the loop below
  // fills `rate` with its share of the excess, and `excess` is the
  // demand left above the grant.
  std::vector<double> rate(n, 0.0);
  std::vector<double> excess(n, 0.0);
  std::vector<char> frozen(n, 0);
  std::vector<double> rem = link_capacities;
  std::vector<double> wsum(m, 0.0);

  for (std::size_t i = 0; i < n; ++i) {
    const AllocFlow& f = flows[i];
    assert(f.weight > 0.0 && "water_fill: weights must be positive");
    assert(f.demand >= 0.0 && "water_fill: demands must be non-negative");
    assert(f.min_rate >= 0.0 && "water_fill: minimum rates must be non-negative");
    const double granted = std::min(f.min_rate, f.demand);
    excess[i] = f.demand - granted;
    for (std::uint32_t l : f.links) {
      assert(l < m && "water_fill: link index out of range");
      wsum[l] += f.weight;
      rem[l] -= granted;
    }
  }

  std::size_t left = n;
  while (left > 0) {
    // The next constraint hit while raising the normalized level
    // rate/weight uniformly: either a link saturates or a flow's demand
    // cap is reached, whichever happens at the lower level.
    double link_level = std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < m; ++l) {
      if (wsum[l] > kWeightEps) {
        link_level = std::min(link_level, std::max(rem[l], 0.0) / wsum[l]);
      }
    }
    double demand_level = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      if (!frozen[i]) demand_level = std::min(demand_level, excess[i] / flows[i].weight);
    }

    if (demand_level <= link_level) {
      if (!std::isfinite(demand_level)) {
        // No binding link and unbounded demand: the remaining flows are
        // unconstrained.  Hand back their (infinite) demands verbatim.
        for (std::size_t i = 0; i < n; ++i) {
          if (!frozen[i]) rate[i] = excess[i];
        }
        break;
      }
      const double thr = freeze_threshold(demand_level);
      for (std::size_t i = 0; i < n; ++i) {
        if (frozen[i] || excess[i] / flows[i].weight > thr) continue;
        rate[i] = excess[i];
        frozen[i] = 1;
        --left;
        for (std::uint32_t l : flows[i].links) {
          rem[l] -= rate[i];
          wsum[l] -= flows[i].weight;
        }
      }
    } else {
      const double thr = freeze_threshold(link_level);
      std::vector<char> binding(m, 0);
      for (std::size_t l = 0; l < m; ++l) {
        binding[l] = wsum[l] > kWeightEps && std::max(rem[l], 0.0) / wsum[l] <= thr;
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (frozen[i]) continue;
        bool hits = false;
        for (std::uint32_t l : flows[i].links) hits = hits || binding[l] != 0;
        if (!hits) continue;
        rate[i] = flows[i].weight * link_level;
        frozen[i] = 1;
        --left;
        for (std::uint32_t l : flows[i].links) {
          rem[l] -= rate[i];
          wsum[l] -= flows[i].weight;
        }
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) rate[i] += std::min(flows[i].min_rate, flows[i].demand);
  return rate;
}

}  // namespace corelite::sim::fluid
