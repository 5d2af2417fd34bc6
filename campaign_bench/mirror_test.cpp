// Tests of the traced run's own helpers: the mirror-drift guard and the
// span log. Build and run with `python3 campaign_bench/run.py --selftest`.
#include <gtest/gtest.h>

#include "mirror.h"

namespace vpna::bench {
namespace {

core::ProviderReport sample_report(const std::string& name) {
  core::ProviderReport r;
  r.provider = name;
  core::VantagePointReport vp;
  vp.provider = name;
  vp.vantage_id = name + "-1";
  vp.advertised_country = "NL";
  vp.connected = true;
  vp.metadata.dns_resolvers = {"10.8.0.1"};
  r.vantage_points.push_back(vp);
  return r;
}

std::vector<core::ProviderReport> sample_campaign() {
  return {sample_report("AceVPN"), sample_report("AirVPN"),
          sample_report("Mullvad")};
}

TEST(MirrorDrift, IdenticalReportsPass) {
  EXPECT_TRUE(mirror_drift(sample_campaign(), sample_campaign()).empty());
}

TEST(MirrorDrift, FlagsADeliberatelyDifferentReport) {
  auto mirror = sample_campaign();
  mirror[1].vantage_points[0].metadata.dns_resolvers.push_back("8.8.8.8");
  const auto drifted = mirror_drift(mirror, sample_campaign());
  ASSERT_EQ(drifted.size(), 1u);
  EXPECT_EQ(drifted[0], "AirVPN");
}

TEST(MirrorDrift, FlagsAMissingVantagePoint) {
  auto mirror = sample_campaign();
  mirror[2].vantage_points.clear();
  EXPECT_EQ(mirror_drift(mirror, sample_campaign()),
            std::vector<std::string>{"Mullvad"});
}

TEST(MirrorDrift, LengthMismatchFlagsEveryProvider) {
  auto mirror = sample_campaign();
  mirror.pop_back();
  EXPECT_EQ(mirror_drift(mirror, sample_campaign()).size(), 3u);
}

TEST(CensusDrift, FlagsADeliberatelyDifferentCensus) {
  std::vector<core::ScaledShardCensus> reference(2);
  reference[0].provider = "p0";
  reference[1].provider = "p1";
  reference[1].hosts = 40;
  auto mirror = reference;
  EXPECT_TRUE(census_drift(mirror, reference).empty());
  mirror[1].hosts = 41;
  EXPECT_EQ(census_drift(mirror, reference), std::vector<std::string>{"p1"});
}

TEST(SpanLog, RecordsParentsShardsAndDurations) {
  SpanLog log;
  double outer_ms = 0.0;
  double inner_ms = 0.0;
  {
    ScopedSpan outer(log, "shard", -1, 7);
    {
      ScopedSpan inner(log, "build", outer.index(), 7);
      inner_ms = inner.ms();
    }
    outer_ms = outer.ms();
  }
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_EQ(log.spans()[1].shard, 7);
  EXPECT_GE(outer_ms, inner_ms);
  EXPECT_GE(inner_ms, 0.0);
  const std::string json = log.to_json();
  EXPECT_NE(json.find("\"name\":\"build\""), std::string::npos);
  EXPECT_NE(json.find("\"parent\":0"), std::string::npos);
}

}  // namespace
}  // namespace vpna::bench
