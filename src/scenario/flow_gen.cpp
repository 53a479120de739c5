#include "scenario/flow_gen.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "sim/random.h"

namespace corelite::scenario {

namespace {

/// Bounded-Pareto(alpha, L, H) by inverse CDF: heavy-tailed on-times
/// without the unbounded draws plain Pareto would feed the simulator.
double bounded_pareto(sim::Rng& rng, double alpha, double lo, double hi) {
  const double u = rng.uniform01();
  const double ratio = std::pow(lo / hi, alpha);
  return lo / std::pow(1.0 - u * (1.0 - ratio), 1.0 / alpha);
}

}  // namespace

std::vector<GenFlow> generate_flows(const GeneratedTopology& topo, const FlowGenConfig& cfg,
                                    double duration_sec, std::uint64_t seed) {
  assert(!topo.sources.empty() && !topo.sinks.empty());
  assert(!cfg.weight_cycle.empty());
  assert(duration_sec > 0.0);

  // Distinct stream from the simulation's (which consumes the raw seed):
  // generating the population must not perturb the run's own draws.
  sim::Rng rng{seed ^ 0xc01e57a7e5eedULL};

  // Auto arrival pacing: spread arrivals over the first half of the run
  // so every population size keeps most flows live most of the time.
  const double mean_gap = cfg.mean_arrival_gap_sec > 0.0
                              ? cfg.mean_arrival_gap_sec
                              : duration_sec * 0.5 / static_cast<double>(cfg.num_flows);
  // Arrivals from an explicit (oversized) gap wrap back into the run.
  const double arrival_span = std::max(1e-9, duration_sec * cfg.arrival_span_frac);

  std::vector<GenFlow> flows;
  flows.reserve(cfg.num_flows);
  double arrivals = 0.0;
  for (std::size_t i = 0; i < cfg.num_flows; ++i) {
    GenFlow f;
    f.id = static_cast<net::FlowId>(i + 1);
    f.weight = cfg.weight_cycle[i % cfg.weight_cycle.size()];

    arrivals += rng.exponential(mean_gap);
    const double start0 = arrivals < arrival_span ? arrivals : std::fmod(arrivals, arrival_span);

    const auto n_src = static_cast<std::int64_t>(topo.sources.size());
    const auto n_snk = static_cast<std::int64_t>(topo.sinks.size());
    f.src_attach = static_cast<std::uint32_t>(rng.uniform_int(0, n_src - 1));
    f.dst_attach = static_cast<std::uint32_t>(rng.uniform_int(0, n_snk - 1));
    f.src_router = topo.sources[f.src_attach];
    f.dst_router = topo.sinks[f.dst_attach];
    for (int attempt = 0; f.dst_router == f.src_router && attempt < 64; ++attempt) {
      f.dst_attach = static_cast<std::uint32_t>(rng.uniform_int(0, n_snk - 1));
      f.dst_router = topo.sinks[f.dst_attach];
    }
    assert(f.dst_router != f.src_router && "topology offers no distinct sink");

    if (!cfg.churn) {
      f.windows.push_back({sim::SimTime::seconds(start0), sim::SimTime::infinite()});
    } else {
      double t = start0;
      while (f.windows.size() < cfg.max_windows && t < duration_sec) {
        const double on = bounded_pareto(rng, cfg.pareto_alpha, cfg.on_min_sec, cfg.on_max_sec);
        const bool last = f.windows.size() + 1 == cfg.max_windows || t + on >= duration_sec;
        f.windows.push_back({sim::SimTime::seconds(t),
                             last ? sim::SimTime::infinite() : sim::SimTime::seconds(t + on)});
        if (last) break;
        t += on + rng.exponential(cfg.mean_off_sec);
      }
      if (f.windows.empty()) {
        f.windows.push_back({sim::SimTime::seconds(start0), sim::SimTime::infinite()});
      }
    }
    assert(net::valid_activity_windows(f.windows));
    flows.push_back(std::move(f));
  }
  return flows;
}

std::uint64_t flows_digest(const std::vector<GenFlow>& flows) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  };
  for (const GenFlow& f : flows) {
    mix(static_cast<std::uint64_t>(f.id));
    mix(static_cast<std::uint64_t>(f.src_router));
    mix(static_cast<std::uint64_t>(f.dst_router));
    mix(std::bit_cast<std::uint64_t>(f.weight));
    for (const auto& w : f.windows) {
      mix(std::bit_cast<std::uint64_t>(w.start.sec()));
      mix(std::bit_cast<std::uint64_t>(w.stop.sec()));
    }
  }
  return h;
}

}  // namespace corelite::scenario
