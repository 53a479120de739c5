// Maps command-line options onto a ScenarioSpec (the corelite_sim tool).
#pragma once

#include <optional>
#include <ostream>
#include <string>

#include "cli/args.h"
#include "scenario/scenario.h"

namespace corelite::cli {

/// Registers every scenario-related option on `parser`.
void register_scenario_options(ArgParser& parser);

/// Builds the spec described by the parsed options: the named --scenario,
/// or the script --config names (with --mechanism, --duration and --seed
/// overriding its lines when set).  On error (unknown scenario/mechanism
/// name, malformed weights list, a bad script, --config with --scenario
/// or --weights) writes a diagnostic to `err` and returns nullopt.
[[nodiscard]] std::optional<scenario::ScenarioSpec> spec_from_args(const ArgParser& parser,
                                                                   std::ostream& err);

/// Sweep mode builds every run's spec from its grid cell, so the
/// per-run knobs spec_from_args applies would be silently dropped.
/// Writes one diagnostic to `err` per such option that is set, and one
/// for a negative --duration; false if it wrote any.
[[nodiscard]] bool sweep_args_valid(const ArgParser& parser, std::ostream& err);

/// Reads --audit-band (registered by corelite_sim with the --audit
/// family); nullopt and a diagnostic on `err` unless it is > 0.
[[nodiscard]] std::optional<double> audit_band_from_args(const ArgParser& parser,
                                                         std::ostream& err);

/// Parses "1,2,3.5" into weights; empty on malformed input.
[[nodiscard]] std::optional<std::vector<double>> parse_weight_list(const std::string& text);

}  // namespace corelite::cli
