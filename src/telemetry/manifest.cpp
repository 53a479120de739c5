#include "telemetry/manifest.h"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "stats/json_writer.h"
#include "telemetry/metrics.h"

#ifndef CORELITE_GIT_SHA
#define CORELITE_GIT_SHA "unknown"
#endif
#ifndef CORELITE_BUILD_FLAGS
#define CORELITE_BUILD_FLAGS "unknown"
#endif
#ifndef CORELITE_BUILD_TYPE
#define CORELITE_BUILD_TYPE "unknown"
#endif

namespace corelite::telemetry {

std::string_view BuildInfo::git_sha() { return CORELITE_GIT_SHA; }
#if defined(__GNUC__) && !defined(__clang__)
std::string_view BuildInfo::compiler() { return "GCC " __VERSION__; }
#elif defined(__VERSION__)
std::string_view BuildInfo::compiler() { return __VERSION__; }
#else
std::string_view BuildInfo::compiler() { return "unknown"; }
#endif
std::string_view BuildInfo::flags() { return CORELITE_BUILD_FLAGS; }
std::string_view BuildInfo::build_type() { return CORELITE_BUILD_TYPE; }

namespace {

/// Host CPU model: /proc/cpuinfo's first "model name", else "unknown".
std::string cpu_model() {
  std::ifstream in{"/proc/cpuinfo"};
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? "unknown" : line.substr(start);
  }
  return "unknown";
}

}  // namespace

void write_host_fingerprint(std::FILE* f, std::size_t hw_threads) {
  std::fprintf(f, "  \"cpu_model\": \"%s\",\n", stats::json_escape(cpu_model()).c_str());
  std::fprintf(f, "  \"compiler\": \"%s\",\n", stats::json_escape(BuildInfo::compiler()).c_str());
  std::fprintf(f, "  \"build_type\": \"%s\",\n",
               stats::json_escape(BuildInfo::build_type()).c_str());
  std::fprintf(f, "  \"hw_threads\": %zu,\n", hw_threads);
}

std::string digest_hex(std::uint64_t digest) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(digest));
  return buf;
}

namespace {

void write_metric(std::ostream& os, const MetricSnapshot& m) {
  os << "    {\"name\": \"" << stats::json_escape(m.name) << "\", \"kind\": \""
     << metric_kind_name(m.kind) << "\", \"count\": " << m.count
     << ", \"sum\": " << stats::json_number(m.sum);
  if (m.count > 0) {
    os << ", \"min\": " << stats::json_number(m.min)
       << ", \"max\": " << stats::json_number(m.max)
       << ", \"mean\": " << stats::json_number(m.mean());
  }
  if (m.kind == MetricKind::Gauge && m.count > 0) {
    os << ", \"last\": " << stats::json_number(m.last);
  }
  if (m.kind == MetricKind::Histogram && m.count > 0) {
    // Sparse bucket list: [bucket_floor, count] pairs for non-empty
    // buckets keeps the document small for narrow distributions.
    os << ", \"buckets\": [";
    bool first = true;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      if (m.buckets[b] == 0) continue;
      if (!first) os << ", ";
      first = false;
      os << "[" << stats::json_number(histogram_bucket_floor(b)) << ", " << m.buckets[b] << "]";
    }
    os << "]";
  }
  os << "}";
}

}  // namespace

void write_manifest(std::ostream& os, const RunManifest& m) {
  os << "{\n"
     << "  \"tool\": \"" << stats::json_escape(m.tool) << "\",\n"
     << "  \"scenario\": \"" << stats::json_escape(m.scenario) << "\",\n"
     << "  \"mechanism\": \"" << stats::json_escape(m.mechanism) << "\",\n"
     << "  \"base_seed\": " << m.base_seed << ",\n"
     << "  \"runs\": " << m.runs << ",\n"
     << "  \"jobs\": " << m.jobs << ",\n"
     << "  \"events\": " << m.events << ",\n"
     << "  \"result_digest\": \"" << digest_hex(m.result_digest) << "\",\n"
     << "  \"build\": {\n"
     << "    \"git_sha\": \"" << stats::json_escape(BuildInfo::git_sha()) << "\",\n"
     << "    \"compiler\": \"" << stats::json_escape(BuildInfo::compiler()) << "\",\n"
     << "    \"flags\": \"" << stats::json_escape(BuildInfo::flags()) << "\",\n"
     << "    \"build_type\": \"" << stats::json_escape(BuildInfo::build_type()) << "\"\n"
     << "  },\n";
  os << "  \"wall_phases_ms\": {";
  for (std::size_t i = 0; i < m.wall_phases_ms.size(); ++i) {
    if (i > 0) os << ", ";
    os << "\"" << stats::json_escape(m.wall_phases_ms[i].first)
       << "\": " << stats::json_number(m.wall_phases_ms[i].second);
  }
  os << "},\n";
  os << "  \"hot_path_counters\": {";
  const char* sep = "";
  for (const sim::HotPathCounterField& f : sim::hotpath_counter_fields()) {
    os << sep << "\"" << f.key << "\": " << m.hotpath.*f.member;
    sep = ", ";
  }
  os << "},\n";
  os << "  \"metrics\": [\n";
  const auto metrics = metrics_snapshot();
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    write_metric(os, metrics[i]);
    os << (i + 1 < metrics.size() ? ",\n" : "\n");
  }
  os << "  ],\n";
  os << "  \"extra\": {";
  for (std::size_t i = 0; i < m.extra.size(); ++i) {
    if (i > 0) os << ", ";
    os << "\"" << stats::json_escape(m.extra[i].first) << "\": \""
       << stats::json_escape(m.extra[i].second) << "\"";
  }
  os << "}\n}\n";
}

}  // namespace corelite::telemetry
