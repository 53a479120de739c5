// Run-manifest tests: digest formatting, build provenance, and the JSON
// document every binary emits behind --telemetry.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "telemetry/manifest.h"
#include "telemetry/metrics.h"

namespace corelite::telemetry {
namespace {

TEST(Manifest, DigestHexIsSixteenLowercaseDigits) {
  EXPECT_EQ(digest_hex(0), "0000000000000000");
  EXPECT_EQ(digest_hex(0xabcu), "0000000000000abc");
  EXPECT_EQ(digest_hex(0xDEADBEEFCAFEF00DULL), "deadbeefcafef00d");
}

TEST(Manifest, BuildInfoIsAlwaysPopulated) {
  // Values depend on the build environment, but the accessors must
  // never return empty strings ("unknown" is the worst case).
  EXPECT_FALSE(BuildInfo::git_sha().empty());
  EXPECT_FALSE(BuildInfo::compiler().empty());
  EXPECT_FALSE(BuildInfo::flags().empty());
  EXPECT_FALSE(BuildInfo::build_type().empty());
}

TEST(Manifest, DocumentCarriesEveryRequiredKey) {
  RunManifest m;
  m.tool = "unit_test";
  m.scenario = "fig5,fig7";
  m.mechanism = "corelite,csfq";
  m.base_seed = 42;
  m.runs = 8;
  m.jobs = 4;
  m.events = 123456;
  m.result_digest = 0x1234abcd5678ef00ULL;
  m.hotpath.exp_calls = 7;
  m.wall_phases_ms.emplace_back("setup", 1.5);
  m.wall_phases_ms.emplace_back("run", 250.25);
  m.extra.emplace_back("trace", "trace.json");

  std::ostringstream os;
  write_manifest(os, m);
  const std::string out = os.str();

  EXPECT_NE(out.find("\"tool\": \"unit_test\""), std::string::npos);
  EXPECT_NE(out.find("\"scenario\": \"fig5,fig7\""), std::string::npos);
  EXPECT_NE(out.find("\"mechanism\": \"corelite,csfq\""), std::string::npos);
  EXPECT_NE(out.find("\"base_seed\": 42"), std::string::npos);
  EXPECT_NE(out.find("\"runs\": 8"), std::string::npos);
  EXPECT_NE(out.find("\"jobs\": 4"), std::string::npos);
  EXPECT_NE(out.find("\"events\": 123456"), std::string::npos);
  // The digest is rendered exactly as the binaries print it, so the
  // manifest can be cross-checked against stdout.
  EXPECT_NE(out.find("\"result_digest\": \"1234abcd5678ef00\""), std::string::npos);
  EXPECT_NE(out.find("\"build\""), std::string::npos);
  EXPECT_NE(out.find("\"git_sha\""), std::string::npos);
  EXPECT_NE(out.find("\"compiler\""), std::string::npos);
  EXPECT_NE(out.find("\"flags\""), std::string::npos);
  EXPECT_NE(out.find("\"build_type\""), std::string::npos);
  EXPECT_NE(out.find("\"wall_phases_ms\": {\"setup\": 1.5, \"run\": 250.25}"), std::string::npos);
  EXPECT_NE(out.find("\"exp_calls\": 7"), std::string::npos);
  EXPECT_NE(out.find("\"metrics\": ["), std::string::npos);
  EXPECT_NE(out.find("\"extra\": {\"trace\": \"trace.json\"}"), std::string::npos);
}

TEST(Manifest, MetricsSectionReflectsTheLiveSnapshot) {
  set_enabled(true);
  reset_metrics();
  const Gauge g{"manifest.test.gauge"};
  const Histogram h{"manifest.test.hist"};
  g.set(3.0);
  h.observe(5.0);  // bucket [4, 8)

  RunManifest m;
  m.hotpath.csfq_relabels = 42;
  std::ostringstream os;
  write_manifest(os, m);
  const std::string out = os.str();
  EXPECT_NE(out.find("{\"name\": \"manifest.test.gauge\", \"kind\": \"gauge\", "
                     "\"count\": 1, \"sum\": 3, \"min\": 3, \"max\": 3, \"mean\": 3, "
                     "\"last\": 3}"),
            std::string::npos);
  // Histograms render sparse [bucket_floor, count] pairs.
  EXPECT_NE(out.find("\"buckets\": [[4, 1]]"), std::string::npos);
  // Every counter of the block is written under its table key, once;
  // none of them is a registry metric.
  for (const sim::HotPathCounterField& f : sim::hotpath_counter_fields()) {
    const std::string key = "\"" + std::string{f.key} + "\": ";
    const auto at = out.find(key);
    EXPECT_NE(at, std::string::npos) << f.key;
    EXPECT_EQ(out.find(key, at + 1), std::string::npos) << f.key;
  }
  EXPECT_NE(out.find("\"csfq_relabels\": 42"), std::string::npos);
  EXPECT_EQ(out.find("\"kind\": \"counter\""), std::string::npos);

  reset_metrics();
  set_enabled(false);
}

}  // namespace
}  // namespace corelite::telemetry
