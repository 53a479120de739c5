// Text-based scenario scripts — the ns-2 OTcl-script substitute.
//
// The paper's experiments were driven by ns simulation scripts; this
// module provides the equivalent for the reproduction: a small
// line-oriented language describing a topology, the QoS mechanism and
// the flow population.  A parsed script is an ordinary ScenarioSpec —
// its graph a GeneratedTopology with a fixed flow list — so it runs
// through run_paper_scenario like any other spec, under every mechanism
// and engine mode (`corelite_sim --config FILE`).
//
// Grammar (one command per line, '#' starts a comment):
//
//   mechanism NAME                  # corelite (default), csfq, droptail, red,
//                                   # fred, wfq, ecnbit, choke or sfq
//   duration SECONDS                # default 80
//   seed N                          # default 1
//   class NAME WEIGHT [MINRATE]     # administrative rate class (§2.1)
//   node NAME                       # optional; nodes auto-create on use
//   link A B MBPS DELAY_MS QUEUE [simplex]    # default duplex
//   core NAME                       # NAME is a router
//   edge NAME                       # NAME is a source attach node (edge router)
//   flow ID INGRESS EGRESS weight W [min PPS] [window START STOP]...
//   flow ID INGRESS EGRESS class NAME [window START STOP]...
//
// Node rules; a script outside them is rejected with a message naming
// the node or flow:
//   - an `edge` node has exactly one link, to a router; every flow's
//     INGRESS is one;
//   - a flow's EGRESS is a leaf node (one link, to a router) declared
//     neither `edge` nor `core`; it becomes a sink attach node;
//   - every other node is a router and must be declared `core`;
//   - the routers are connected, and every flow has a route from its
//     INGRESS to its EGRESS (a `simplex` link runs from A to B only).
// Every router-router link is a designated bottleneck (queue series,
// drop times, audit gauges); attach links are drop-tail.
//
// Flow ids are unique and exactly 1..N, in any order.  `window`
// intervals are in seconds ("inf" allowed for STOP); a flow without
// windows runs for the whole simulation.  A class MINRATE or a flow's
// `min` is its minimum-rate contract (ScenarioSpec::min_rates).
//
// See examples/scripts/ for complete scenario files.
#pragma once

#include <istream>
#include <optional>
#include <ostream>

#include "scenario/scenario.h"

namespace corelite::scenario {

/// Parse a scenario script into a spec.  On error, writes a diagnostic
/// ("line N: ..." for a bad line, or one naming the offending node or
/// flow) to `err` and returns nullopt.
[[nodiscard]] std::optional<ScenarioSpec> parse_scenario_script(std::istream& in,
                                                                std::ostream& err);

}  // namespace corelite::scenario
