#include "scenario/topology_gen.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

#include "sim/random.h"

namespace corelite::scenario {

namespace {

// Same FNV-1a construction as the runner's result digest, so golden
// values are comparable across the codebase.
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void mix(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  // Only what a link sets, so generator output keeps its digest.
  void mix(const LinkParams& p) {
    if (p.rate) mix(p.rate->bits_per_second());
    if (p.delay) mix(p.delay->sec());
    if (p.queue_packets) mix(static_cast<std::uint64_t>(*p.queue_packets));
    if (p.simplex) mix(std::uint64_t{1});
  }
};

}  // namespace

std::uint64_t GeneratedTopology::digest() const {
  Fnv d;
  for (char c : name) d.mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  d.mix(static_cast<std::uint64_t>(routers));
  d.mix(static_cast<std::uint64_t>(links.size()));
  for (const GenLink& l : links) {
    d.mix(static_cast<std::uint64_t>(l.a));
    d.mix(static_cast<std::uint64_t>(l.b));
    d.mix(l.own);
  }
  for (std::uint32_t r : sources) d.mix(static_cast<std::uint64_t>(r));
  for (std::uint32_t r : sinks) d.mix(static_cast<std::uint64_t>(r));
  for (const LinkParams& p : source_links) d.mix(p);
  for (const LinkParams& p : sink_links) d.mix(p);
  for (std::size_t i : bottlenecks) d.mix(static_cast<std::uint64_t>(i));
  d.mix(cfg.core_rate.bits_per_second());
  d.mix(cfg.access_rate.bits_per_second());
  d.mix(cfg.link_delay.sec());
  d.mix(static_cast<std::uint64_t>(cfg.queue_capacity_packets));
  return d.h;
}

bool GeneratedTopology::connected() const {
  if (routers == 0) return false;
  std::vector<std::vector<std::uint32_t>> adj(routers);
  for (const GenLink& l : links) {
    if (l.a >= routers || l.b >= routers) return false;
    adj[l.a].push_back(l.b);
    adj[l.b].push_back(l.a);
  }
  std::vector<bool> seen(routers, false);
  std::vector<std::uint32_t> stack{0};
  seen[0] = true;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    stack.pop_back();
    for (std::uint32_t m : adj[n]) {
      if (!seen[m]) {
        seen[m] = true;
        ++visited;
        stack.push_back(m);
      }
    }
  }
  return visited == routers;
}

void GeneratedTopology::set_link_delay(sim::TimeDelta d) {
  cfg.link_delay = d;
  for (GenLink& l : links) l.own.delay.reset();
  for (LinkParams& p : source_links) p.delay.reset();
  for (LinkParams& p : sink_links) p.delay.reset();
}

GeneratedTopology make_parking_lot(std::size_t stages, TopologyGenConfig cfg) {
  assert(stages >= 1);
  GeneratedTopology t;
  t.name = "pl" + std::to_string(stages);
  t.cfg = cfg;
  t.routers = stages + 1;
  for (std::uint32_t i = 0; i < stages; ++i) {
    t.links.push_back({i, i + 1, {}});
    t.bottlenecks.push_back(i);  // every chain link is a bottleneck
    t.sources.push_back(i);
    t.sinks.push_back(i + 1);
  }
  return t;
}

GeneratedTopology make_fat_tree(std::size_t k, TopologyGenConfig cfg) {
  assert(k >= 2 && k % 2 == 0);
  GeneratedTopology t;
  t.name = "ft" + std::to_string(k);
  t.cfg = cfg;
  const std::size_t half = k / 2;
  const std::size_t n_core = half * half;
  // Router layout: cores [0, n_core), then per pod p: aggs then edges.
  t.routers = n_core + k * k;  // k pods x (k/2 agg + k/2 edge)
  auto agg_of = [&](std::size_t pod, std::size_t j) {
    return static_cast<std::uint32_t>(n_core + pod * k + j);
  };
  auto edge_of = [&](std::size_t pod, std::size_t j) {
    return static_cast<std::uint32_t>(n_core + pod * k + half + j);
  };
  for (std::size_t pod = 0; pod < k; ++pod) {
    for (std::size_t j = 0; j < half; ++j) {
      // Aggregation j uplinks to cores [j*half, (j+1)*half) — the
      // bottleneck tier of the fabric.
      for (std::size_t c = 0; c < half; ++c) {
        t.bottlenecks.push_back(t.links.size());
        t.links.push_back({agg_of(pod, j), static_cast<std::uint32_t>(j * half + c), {}});
      }
      // Edge j connects to every aggregation router of its pod.
      for (std::size_t a = 0; a < half; ++a) {
        t.links.push_back({edge_of(pod, j), agg_of(pod, a), {}});
      }
      t.sources.push_back(edge_of(pod, j));
      t.sinks.push_back(edge_of(pod, j));
    }
  }
  return t;
}

GeneratedTopology make_isp(std::size_t routers, std::uint64_t seed, TopologyGenConfig cfg) {
  assert(routers >= 2);
  GeneratedTopology t;
  t.name = "isp" + std::to_string(routers);
  t.cfg = cfg;
  t.routers = routers;
  // Generation has its own stream, decoupled from the simulation's.
  sim::Rng rng{seed ^ 0xa5a5a5a55a5a5a5aULL};

  // Uniform random attachment tree: node i hangs off a uniformly chosen
  // earlier node — connected by construction.
  std::vector<std::size_t> degree(routers, 0);
  for (std::uint32_t i = 1; i < routers; ++i) {
    const auto parent = static_cast<std::uint32_t>(rng.uniform_int(0, i - 1));
    t.links.push_back({parent, i, {}});
    ++degree[parent];
    ++degree[i];
  }
  const std::size_t tree_links = t.links.size();

  // Extra chords (~routers/3) make it a mesh rather than a tree.  Reject
  // self-loops and duplicates; bounded attempts keep generation total.
  const std::size_t extra = routers / 3;
  auto duplicate = [&t](std::uint32_t a, std::uint32_t b) {
    return std::any_of(t.links.begin(), t.links.end(), [&](const GenLink& l) {
      return (l.a == a && l.b == b) || (l.a == b && l.b == a);
    });
  };
  std::size_t added = 0;
  for (std::size_t attempt = 0; added < extra && attempt < extra * 16; ++attempt) {
    const auto a = static_cast<std::uint32_t>(rng.uniform_int(0, static_cast<std::int64_t>(routers) - 1));
    const auto b = static_cast<std::uint32_t>(rng.uniform_int(0, static_cast<std::int64_t>(routers) - 1));
    if (a == b || duplicate(a, b)) continue;
    t.links.push_back({a, b, {}});
    ++degree[a];
    ++degree[b];
    ++added;
  }

  // Every router can source and sink traffic.
  for (std::uint32_t i = 0; i < routers; ++i) {
    t.sources.push_back(i);
    t.sinks.push_back(i);
  }

  // Bottlenecks: backbone tree links (both endpoints of degree >= 3);
  // small graphs fall back to the first tree links.
  for (std::size_t i = 0; i < tree_links; ++i) {
    if (degree[t.links[i].a] >= 3 && degree[t.links[i].b] >= 3) t.bottlenecks.push_back(i);
  }
  if (t.bottlenecks.empty()) {
    for (std::size_t i = 0; i < std::min<std::size_t>(3, tree_links); ++i) {
      t.bottlenecks.push_back(i);
    }
  }
  return t;
}

}  // namespace corelite::scenario
