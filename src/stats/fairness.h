// Jain's fairness index.
//
// The weighted max-min allocation that rates are scored against comes
// from the one water-filling oracle, sim::fluid::water_fill
// (sim/fluid/allocator.h); scenario::ideal_rates_at runs it for a spec.
#pragma once

#include <span>

namespace corelite::stats {

/// Jain's fairness index over already-normalized allocations x_i
/// (i.e. rate_i / weight_i).  1.0 = perfectly fair; 1/n = maximally unfair.
[[nodiscard]] double jain_index(std::span<const double> normalized);

/// Convenience overload normalizing rates by weights first.
[[nodiscard]] double jain_index(std::span<const double> rates, std::span<const double> weights);

}  // namespace corelite::stats
