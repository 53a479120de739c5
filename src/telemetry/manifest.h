// Run manifests: one JSON document that makes a BENCH row (or any
// experiment output) self-describing.
//
// A manifest records WHAT ran (tool, scenario grid, mechanism, seeds,
// event count), ON WHAT (git SHA, compiler, flags, build type — baked
// in at compile time), HOW LONG (named wall-clock phases) and WHAT CAME
// OUT (the FNV-1a result digest that the determinism tests key on,
// every always-on counter, and the telemetry gauges and histograms).  The
// digest field is the same value the binary prints, so a manifest can
// be validated against the run's visible output (tools/
// check_telemetry.py does exactly that in CI).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/hotpath.h"

namespace corelite::telemetry {

/// Compile-time facts about this binary (populated by the build system;
/// "unknown" when built outside git or without the CMake definitions).
struct BuildInfo {
  [[nodiscard]] static std::string_view git_sha();
  [[nodiscard]] static std::string_view compiler();
  [[nodiscard]] static std::string_view flags();
  [[nodiscard]] static std::string_view build_type();
};

/// 16-digit lower-case hex, the format every binary prints digests in.
[[nodiscard]] std::string digest_hex(std::uint64_t digest);

struct RunManifest {
  std::string tool;       ///< binary name, e.g. "corelite_sim"
  std::string scenario;   ///< scenario name or comma-joined sweep list
  std::string mechanism;  ///< mechanism name or comma-joined sweep list
  std::uint64_t base_seed = 0;
  std::size_t runs = 1;
  std::size_t jobs = 1;
  std::uint64_t events = 0;          ///< total simulated events
  std::uint64_t result_digest = 0;   ///< matches the printed digest
  sim::HotPathCounters hotpath{};  ///< written as `hot_path_counters`, every field
  /// Named wall-clock phases, in order (e.g. setup / run / report).
  std::vector<std::pair<std::string, double>> wall_phases_ms;
  /// Free-form string facts (e.g. trace file path, repeats).
  std::vector<std::pair<std::string, std::string>> extra;
};

/// Emit the manifest plus build info and the current metrics snapshot.
void write_manifest(std::ostream& os, const RunManifest& m);

}  // namespace corelite::telemetry
