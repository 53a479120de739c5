#include "scenario/config_script.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "csfq/core.h"
#include "csfq/edge_router.h"
#include "net/network.h"
#include "qos/core_router.h"
#include "qos/edge_router.h"
#include "sim/simulator.h"

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

}  // namespace

std::optional<ScriptScenario> parse_scenario_script(std::istream& in, std::ostream& err) {
  ScriptScenario s;
  auto touch_node = [&s](const std::string& name) {
    if (std::find(s.nodes.begin(), s.nodes.end(), name) == s.nodes.end()) {
      s.nodes.push_back(name);
    }
  };

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
      if (tok.size() != 2 || (tok[1] != "corelite" && tok[1] != "csfq")) {
        return fail("mechanism expects 'corelite' or 'csfq'");
      }
      s.mechanism = tok[1];
    } else if (cmd == "duration") {
      if (tok.size() != 2 || !to_double(tok[1], s.duration_sec) || s.duration_sec <= 0) {
        return fail("duration expects a positive number of seconds");
      }
    } else if (cmd == "seed") {
      std::size_t seed = 0;
      if (tok.size() != 2 || !to_size(tok[1], seed)) return fail("seed expects an integer");
      s.seed = seed;
    } else if (cmd == "class") {
      double w = 0.0;
      double min_rate = 0.0;
      if (tok.size() < 3 || tok.size() > 4 || !to_double(tok[2], w) || w <= 0.0) {
        return fail("class expects: class NAME WEIGHT [MINRATE]");
      }
      if (tok.size() == 4 && (!to_double(tok[3], min_rate) || min_rate < 0.0)) {
        return fail("class min-rate must be a non-negative number");
      }
      s.classes.define(tok[1], w, min_rate);
    } else if (cmd == "node") {
      if (tok.size() != 2) return fail("node expects: node NAME");
      touch_node(tok[1]);
    } else if (cmd == "link") {
      ScriptLink l;
      if (tok.size() < 6 || tok.size() > 7) {
        return fail("link expects: link A B MBPS DELAY_MS QUEUE [simplex]");
      }
      l.a = tok[1];
      l.b = tok[2];
      if (l.a == l.b) return fail("link endpoints must differ");
      if (!to_double(tok[3], l.mbps) || l.mbps <= 0.0) return fail("bad link rate");
      if (!to_double(tok[4], l.delay_ms) || l.delay_ms < 0.0) return fail("bad link delay");
      if (!to_size(tok[5], l.queue) || l.queue == 0) return fail("bad link queue size");
      if (tok.size() == 7) {
        if (tok[6] != "simplex") return fail("trailing link token must be 'simplex'");
        l.duplex = false;
      }
      touch_node(l.a);
      touch_node(l.b);
      s.links.push_back(std::move(l));
    } else if (cmd == "core") {
      if (tok.size() != 2) return fail("core expects: core NAME");
      touch_node(tok[1]);
      s.cores.push_back(tok[1]);
    } else if (cmd == "edge") {
      if (tok.size() != 2) return fail("edge expects: edge NAME");
      touch_node(tok[1]);
      s.edges.push_back(tok[1]);
    } else if (cmd == "flow") {
      if (tok.size() < 6) {
        return fail("flow expects: flow ID INGRESS EGRESS weight W | class NAME ...");
      }
      ScriptFlow f;
      std::size_t id = 0;
      if (!to_size(tok[1], id) || id == 0) return fail("flow id must be a positive integer");
      f.id = static_cast<net::FlowId>(id);
      f.ingress = tok[2];
      f.egress = tok[3];
      touch_node(f.ingress);
      touch_node(f.egress);
      std::size_t i = 4;
      if (tok[i] == "weight") {
        if (i + 1 >= tok.size() || !to_double(tok[i + 1], f.weight) || f.weight <= 0.0) {
          return fail("flow weight must be positive");
        }
        i += 2;
      } else if (tok[i] == "class") {
        if (i + 1 >= tok.size()) return fail("flow class expects a name");
        const auto rc = s.classes.find(tok[i + 1]);
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
  return s;
}

std::optional<ScriptRunResult> run_script_scenario(const ScriptScenario& s,
                                                   std::ostream& err) {
  sim::Simulator simulator{s.seed};
  net::Network network{simulator};

  std::unordered_map<std::string, net::NodeId> ids;
  for (const auto& name : s.nodes) ids[name] = network.add_node(name);

  for (const auto& l : s.links) {
    const auto rate = sim::Rate::mbps(l.mbps);
    const auto delay = sim::TimeDelta::millis(l.delay_ms);
    if (l.duplex) {
      network.connect_duplex(ids.at(l.a), ids.at(l.b), rate, delay, l.queue);
    } else {
      network.connect(ids.at(l.a), ids.at(l.b), rate, delay, l.queue);
    }
  }
  network.build_routes();

  // Validate flows against declared edges and reachability.
  for (const auto& f : s.flows) {
    if (std::find(s.edges.begin(), s.edges.end(), f.ingress) == s.edges.end()) {
      err << "flow " << f.id << ": ingress '" << f.ingress << "' is not declared 'edge'\n";
      return std::nullopt;
    }
    if (network.path(ids.at(f.ingress), ids.at(f.egress)).empty()) {
      err << "flow " << f.id << ": no route from " << f.ingress << " to " << f.egress << "\n";
      return std::nullopt;
    }
  }

  ScriptRunResult result;
  stats::FlowTracker& tracker = result.tracker;

  // Egress sinks.
  for (const auto& f : s.flows) {
    network.node(ids.at(f.egress)).set_local_sink([&tracker](net::Packet&& p) {
      if (p.is_data()) tracker.on_delivered(p.flow);
    });
  }

  std::vector<std::unique_ptr<qos::CoreliteCoreRouter>> cl_cores;
  std::vector<std::unique_ptr<csfq::CsfqCoreRouter>> csfq_cores;
  std::unordered_map<std::string, std::unique_ptr<qos::CoreliteEdgeRouter>> cl_edges;
  std::unordered_map<std::string, std::unique_ptr<csfq::CsfqEdgeRouter>> csfq_edges;

  const bool corelite = s.mechanism == "corelite";
  for (const auto& name : s.cores) {
    if (corelite) {
      cl_cores.push_back(
          std::make_unique<qos::CoreliteCoreRouter>(network, ids.at(name), s.corelite));
    } else {
      csfq_cores.push_back(
          std::make_unique<csfq::CsfqCoreRouter>(network, ids.at(name), s.csfq));
    }
  }
  for (const auto& name : s.edges) {
    if (corelite) {
      cl_edges.emplace(name, std::make_unique<qos::CoreliteEdgeRouter>(network, ids.at(name),
                                                                       s.corelite, &tracker));
    } else {
      csfq_edges.emplace(name, std::make_unique<csfq::CsfqEdgeRouter>(network, ids.at(name),
                                                                      s.csfq, &tracker));
    }
  }

  for (const auto& f : s.flows) {
    net::FlowSpec fs;
    fs.id = f.id;
    fs.ingress = ids.at(f.ingress);
    fs.egress = ids.at(f.egress);
    fs.weight = f.weight;
    fs.min_rate_pps = f.min_rate_pps;
    if (!f.windows.empty()) fs.active = f.windows;
    if (corelite) {
      cl_edges.at(f.ingress)->add_flow(fs);
    } else {
      csfq_edges.at(f.ingress)->add_flow(fs);
    }
  }

  tracker.sample_cumulative(simulator.now());
  auto sampler = simulator.every(sim::TimeDelta::seconds(1),
                                 [&] { tracker.sample_cumulative(simulator.now()); });
  simulator.run_until(sim::SimTime::seconds(s.duration_sec));
  sampler.cancel();
  tracker.sample_cumulative(simulator.now());

  result.events_processed = simulator.events_processed();
  result.unrouteable = network.unrouteable_count();
  for (const auto& link : network.links()) result.data_drops += link->stats().dropped;
  return result;
}

}  // namespace corelite::scenario
