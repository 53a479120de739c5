// Analytic weighted max-min allocation by water-filling.
//
// Given directed link capacities and flows with (weight, demand,
// minimum rate, link set), computes the unique weighted max-min fair
// rate vector with minimum rates (Vandalore et al.'s general weighted
// fairness): each flow first gets its minimum rate, then the normalized
// excess level is raised uniformly until either a link saturates
// (freezing every flow crossing it) or a flow hits its demand cap
// (freezing just that flow), and the freed capacity is re-filled among
// the rest.  This is the fixed point Corelite/CSFQ converge to in steady
// state (paper Section 2), and the repository's one max-min oracle: the
// fluid engine's certification, the fairness auditor and
// scenario::ideal_rates_at all solve through it.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace corelite::sim::fluid {

/// One flow as the allocator sees it.  `links` are indices into the
/// capacity vector handed to water_fill(); a flow may cross any number
/// of them (including none, in which case only its demand binds).
struct AllocFlow {
  double weight = 1.0;
  double demand = std::numeric_limits<double>::infinity();  ///< rate cap, same unit as capacities
  std::vector<std::uint32_t> links;
  /// Minimum-rate contract, granted before the excess is shared.  Where
  /// contracts oversubscribe a link, each flow on it gets its contract
  /// and nothing more.
  double min_rate = 0.0;
};

/// Weighted max-min rates, one per input flow (same order): min(min_rate,
/// demand) plus the flow's weighted share of the excess.  Capacities,
/// demands and minimum rates share one unit (the engine uses packets/s).
/// Weights must be positive; demands and minimum rates non-negative
/// (demand 0 ⇒ the flow gets 0 and consumes nothing).
std::vector<double> water_fill(const std::vector<double>& link_capacities,
                               const std::vector<AllocFlow>& flows);

}  // namespace corelite::sim::fluid
