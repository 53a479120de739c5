#include "scenario/config_script.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "qos/rate_classes.h"

namespace corelite::scenario {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream ss{line};
  std::string tok;
  while (ss >> tok) {
    if (tok[0] == '#') break;
    out.push_back(tok);
  }
  return out;
}

/// A finite number and nothing else: strtod also accepts "nan" and
/// "inf", which would slip through every range check below.  (A window's
/// STOP token "inf" is matched before it gets here.)
bool to_double(const std::string& s, double& out) {
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return end != s.c_str() && *end == '\0' && std::isfinite(out);
}

bool to_size(const std::string& s, std::size_t& out) {
  char* end = nullptr;
  const auto v = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || v < 0) return false;
  out = static_cast<std::size_t>(v);
  return true;
}

/// A `flow` line; endpoints are node indices.
struct FlowLine {
  std::size_t id = 0;  ///< as written: checked against 1..N before narrowing
  int line = 0;
  std::uint32_t ingress = 0;
  std::uint32_t egress = 0;
  double weight = 1.0;
  double min_rate_pps = 0.0;
  std::vector<net::ActiveInterval> windows;  ///< empty = always on
};

/// The script as read, before the node rules make it a topology.
struct Script {
  ScenarioSpec spec;               ///< mechanism, duration and seed so far
  std::vector<std::string> names;  ///< nodes, in the order first referenced
  std::vector<bool> core;          ///< per node: declared `core`
  std::vector<bool> edge;          ///< per node: declared `edge`
  std::vector<GenLink> links;      ///< endpoints are node indices
  std::vector<FlowLine> flows;

  std::uint32_t node(const std::string& name) {
    const auto it = std::find(names.begin(), names.end(), name);
    if (it != names.end()) return static_cast<std::uint32_t>(it - names.begin());
    names.push_back(name);
    core.push_back(false);
    edge.push_back(false);
    return static_cast<std::uint32_t>(names.size() - 1);
  }
};

/// True iff router `to` is reachable from router `from` over the
/// topology's links in their allowed directions.
bool reachable(const GeneratedTopology& topo, std::uint32_t from, std::uint32_t to) {
  std::vector<bool> seen(topo.routers, false);
  seen[from] = true;
  for (bool grew = true; grew;) {
    grew = false;
    for (const GenLink& l : topo.links) {
      for (const auto& [x, y] : {std::pair{l.a, l.b}, std::pair{l.b, l.a}}) {
        if (seen[x] && !seen[y] && (x == l.a || !l.own.simplex)) seen[y] = grew = true;
      }
    }
  }
  return seen[to];
}

/// Apply the node rules (config_script.h): the script's graph becomes a
/// GeneratedTopology and its flows a fixed, id-ordered flow list.
std::optional<ScenarioSpec> to_spec(Script& s, std::ostream& err) {
  auto fail = [&err](const std::string& msg) {
    err << msg << "\n";
    return std::nullopt;
  };
  auto quoted = [&s](std::uint32_t node) { return "'" + s.names[node] + "'"; };
  const std::size_t nodes = s.names.size();
  std::vector<std::uint32_t> degree(nodes, 0);
  std::vector<std::uint32_t> link_of(nodes, 0);  // a leaf's one link
  for (std::uint32_t i = 0; i < s.links.size(); ++i) {
    for (const std::uint32_t x : {s.links[i].a, s.links[i].b}) {
      ++degree[x];
      link_of[x] = i;
    }
  }
  std::vector<bool> sink(nodes, false);
  for (const FlowLine& f : s.flows) {
    const std::string tag = "flow " + std::to_string(f.id) + ": ";
    if (!s.edge[f.ingress]) {
      return fail(tag + "ingress " + quoted(f.ingress) + " is not declared 'edge'");
    }
    if (s.edge[f.egress] || s.core[f.egress] || degree[f.egress] != 1) {
      return fail(tag + "egress " + quoted(f.egress) +
                  " must be a leaf node (one link) declared neither 'edge' nor 'core'");
    }
    sink[f.egress] = true;
  }

  GeneratedWorkload wl;
  GeneratedTopology& topo = wl.topology;
  topo.name = "script";
  std::vector<std::uint32_t> index(nodes, UINT32_MAX);  // router, source or sink index
  for (std::uint32_t i = 0; i < nodes; ++i) {
    if (s.core[i] && s.edge[i]) {
      return fail("node " + quoted(i) + " is declared both 'core' and 'edge'");
    }
    if (s.edge[i] || sink[i]) continue;
    if (!s.core[i]) return fail("node " + quoted(i) + " is a router and must be declared 'core'");
    index[i] = static_cast<std::uint32_t>(topo.routers++);
  }
  auto router = [&](std::uint32_t node) { return s.core[node] ? index[node] : UINT32_MAX; };
  for (const GenLink& l : s.links) {
    if (router(l.a) == UINT32_MAX || router(l.b) == UINT32_MAX) continue;
    topo.bottlenecks.push_back(topo.links.size());
    topo.links.push_back({router(l.a), router(l.b), l.own});
  }
  // One source per edge and one sink per egress, hung off the router at
  // the other end of its one link, which runs the way data does if simplex.
  for (std::uint32_t i = 0; i < nodes; ++i) {
    if (!s.edge[i] && !sink[i]) continue;
    const std::string role = s.edge[i] ? "edge " : "sink ";
    if (degree[i] != 1) {
      return fail(role + quoted(i) + " must have exactly one link, has " +
                  std::to_string(degree[i]));
    }
    const GenLink& l = s.links[link_of[i]];
    const std::uint32_t peer = l.a == i ? l.b : l.a;
    if (router(peer) == UINT32_MAX) {
      return fail(role + quoted(i) + " must link to a router, not " + quoted(peer));
    }
    if (l.own.simplex && (l.a == i) != s.edge[i]) {
      return fail(role + quoted(i) + ": no route " + (s.edge[i] ? "to " : "from ") +
                  quoted(peer) + " (its simplex link runs the other way)");
    }
    auto& attach = s.edge[i] ? topo.sources : topo.sinks;
    index[i] = static_cast<std::uint32_t>(attach.size());
    attach.push_back(router(peer));
    (s.edge[i] ? topo.source_links : topo.sink_links).push_back(l.own);
  }
  if (!topo.connected()) return fail("the core routers are not connected");

  const std::size_t n = s.flows.size();
  ScenarioSpec spec = std::move(s.spec);
  spec.num_flows = wl.flows.num_flows = n;
  spec.min_rates.assign(n, 0.0);
  wl.fixed_flows.resize(n);
  for (const FlowLine& f : s.flows) {
    if (f.id > n) {
      return fail("line " + std::to_string(f.line) + ": flow id " + std::to_string(f.id) +
                  " is out of range: the " + std::to_string(n) + " flows must be numbered 1.." +
                  std::to_string(n));
    }
    GenFlow& g = wl.fixed_flows[f.id - 1];
    g = {static_cast<net::FlowId>(f.id), topo.sources[index[f.ingress]],
         topo.sinks[index[f.egress]], index[f.ingress], index[f.egress], f.weight, f.windows};
    if (!reachable(topo, g.src_router, g.dst_router)) {
      return fail("flow " + std::to_string(f.id) + ": no route from " + quoted(f.ingress) +
                  " to " + quoted(f.egress));
    }
    if (g.windows.empty()) g.windows = {{sim::SimTime::zero(), sim::SimTime::infinite()}};
    spec.min_rates[f.id - 1] = f.min_rate_pps;
  }
  spec.generated = std::move(wl);
  return spec;
}

}  // namespace

std::optional<ScenarioSpec> parse_scenario_script(std::istream& in, std::ostream& err) {
  Script s;
  qos::RateClassRegistry classes;

  std::string line;
  int lineno = 0;
  auto fail = [&](const std::string& msg) {
    err << "line " << lineno << ": " << msg << "\n";
    return std::nullopt;
  };

  while (std::getline(in, line)) {
    ++lineno;
    const auto tok = tokenize(line);
    if (tok.empty()) continue;
    const std::string& cmd = tok[0];

    if (cmd == "mechanism") {
      const auto m = tok.size() == 2 ? mechanism_from_name(tok[1]) : std::nullopt;
      if (!m.has_value()) return fail("mechanism expects one of: " + mechanism_names());
      s.spec.mechanism = *m;
    } else if (cmd == "duration") {
      double sec = 0.0;
      if (tok.size() != 2 || !to_double(tok[1], sec) || sec <= 0) {
        return fail("duration expects a positive number of seconds");
      }
      s.spec.duration = sim::SimTime::seconds(sec);
    } else if (cmd == "seed") {
      std::size_t seed = 0;
      if (tok.size() != 2 || !to_size(tok[1], seed)) return fail("seed expects an integer");
      s.spec.seed = seed;
    } else if (cmd == "class") {
      double w = 0.0;
      double min_rate = 0.0;
      if (tok.size() < 3 || tok.size() > 4 || !to_double(tok[2], w) || w <= 0.0) {
        return fail("class expects: class NAME WEIGHT [MINRATE]");
      }
      if (tok.size() == 4 && (!to_double(tok[3], min_rate) || min_rate < 0.0)) {
        return fail("class min-rate must be a non-negative number");
      }
      classes.define(tok[1], w, min_rate);
    } else if (cmd == "node") {
      if (tok.size() != 2) return fail("node expects: node NAME");
      s.node(tok[1]);
    } else if (cmd == "link") {
      if (tok.size() < 6 || tok.size() > 7) {
        return fail("link expects: link A B MBPS DELAY_MS QUEUE [simplex]");
      }
      if (tok[1] == tok[2]) return fail("link endpoints must differ");
      double mbps = 0.0;
      double delay_ms = 0.0;
      std::size_t queue = 0;
      if (!to_double(tok[3], mbps) || mbps <= 0.0) return fail("bad link rate");
      if (!to_double(tok[4], delay_ms) || delay_ms < 0.0) return fail("bad link delay");
      if (!to_size(tok[5], queue) || queue == 0) return fail("bad link queue size");
      if (tok.size() == 7 && tok[6] != "simplex") {
        return fail("trailing link token must be 'simplex'");
      }
      s.links.push_back({s.node(tok[1]), s.node(tok[2]),
                         {sim::Rate::mbps(mbps), sim::TimeDelta::millis(delay_ms), queue,
                          tok.size() == 7}});
    } else if (cmd == "core" || cmd == "edge") {
      if (tok.size() != 2) return fail(cmd + " expects: " + cmd + " NAME");
      const std::uint32_t node = s.node(tok[1]);
      (cmd == "core" ? s.core : s.edge)[node] = true;
    } else if (cmd == "flow") {
      if (tok.size() < 6) {
        return fail("flow expects: flow ID INGRESS EGRESS weight W | class NAME ...");
      }
      FlowLine f;
      f.line = lineno;
      if (!to_size(tok[1], f.id) || f.id == 0) return fail("flow id must be a positive integer");
      if (std::any_of(s.flows.begin(), s.flows.end(),
                      [&f](const FlowLine& g) { return g.id == f.id; })) {
        return fail("duplicate flow id " + tok[1]);
      }
      f.ingress = s.node(tok[2]);
      f.egress = s.node(tok[3]);
      std::size_t i = 4;
      if (tok[i] == "weight") {
        if (i + 1 >= tok.size() || !to_double(tok[i + 1], f.weight) || f.weight <= 0.0) {
          return fail("flow weight must be positive");
        }
        i += 2;
      } else if (tok[i] == "class") {
        if (i + 1 >= tok.size()) return fail("flow class expects a name");
        const auto rc = classes.find(tok[i + 1]);
        if (!rc.has_value()) return fail("unknown rate class '" + tok[i + 1] + "'");
        f.weight = rc->weight;
        f.min_rate_pps = rc->min_rate_pps;
        i += 2;
      } else {
        return fail("flow expects 'weight W' or 'class NAME' after the endpoints");
      }
      while (i < tok.size()) {
        if (tok[i] == "min") {
          if (i + 1 >= tok.size() || !to_double(tok[i + 1], f.min_rate_pps) ||
              f.min_rate_pps < 0.0) {
            return fail("flow min expects a non-negative rate");
          }
          i += 2;
        } else if (tok[i] == "window") {
          if (i + 2 >= tok.size()) return fail("window expects START STOP");
          double start = 0.0;
          double stop = 0.0;
          if (!to_double(tok[i + 1], start) || start < 0.0) return fail("bad window start");
          const bool inf = tok[i + 2] == "inf";
          if (!inf && (!to_double(tok[i + 2], stop) || stop <= start)) {
            return fail("window stop must be 'inf' or greater than start");
          }
          f.windows.push_back({sim::SimTime::seconds(start),
                               inf ? sim::SimTime::infinite() : sim::SimTime::seconds(stop)});
          i += 3;
        } else {
          return fail("unknown flow attribute '" + tok[i] + "'");
        }
      }
      if (!net::valid_activity_windows(f.windows)) {
        return fail("flow windows must be time-ordered and disjoint");
      }
      s.flows.push_back(std::move(f));
    } else {
      return fail("unknown command '" + cmd + "'");
    }
  }

  if (s.links.empty()) {
    err << "script declares no links\n";
    return std::nullopt;
  }
  if (s.flows.empty()) {
    err << "script declares no flows\n";
    return std::nullopt;
  }
  return to_spec(s, err);
}

}  // namespace corelite::scenario
