// The internet-scale synthetic catalog and its campaign path: generator
// determinism (the whole point of seeding every provider stream by name),
// payload byte-identity across worker counts, and the reseller-aliasing
// edge case at scale.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "core/parallel_campaign.h"
#include "ecosystem/scale.h"
#include "vpn/deploy.h"

namespace vpna {
namespace {

constexpr std::uint64_t kSeed = 20181031;

TEST(ScaledCatalog, DeterministicInItsInputs) {
  const auto a = ecosystem::generate_scaled_catalog(40, 1000, kSeed);
  const auto b = ecosystem::generate_scaled_catalog(40, 1000, kSeed);
  ASSERT_EQ(a.providers.size(), 40u);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.subscribers, b.subscribers);

  // Any input change moves the fingerprint.
  EXPECT_NE(a.fingerprint(),
            ecosystem::generate_scaled_catalog(41, 1000, kSeed).fingerprint());
  EXPECT_NE(a.fingerprint(),
            ecosystem::generate_scaled_catalog(40, 1001, kSeed).fingerprint());
  EXPECT_NE(a.fingerprint(),
            ecosystem::generate_scaled_catalog(40, 1000, kSeed + 1)
                .fingerprint());
}

TEST(ScaledCatalog, ProviderStreamsIndependentOfCatalogSize) {
  // Provider i's spec depends only on (seed, name) — growing the catalog
  // never rewrites the providers that were already there.
  const auto small = ecosystem::generate_scaled_catalog(16, 500, kSeed);
  const auto large = ecosystem::generate_scaled_catalog(64, 500, kSeed);
  const auto prefix = std::span<const ecosystem::EvaluatedProvider>(
      large.providers.data(), 16);
  EXPECT_EQ(ecosystem::catalog_fingerprint(prefix),
            ecosystem::catalog_fingerprint(small.providers));
  for (std::size_t i = 0; i < 16; ++i)
    EXPECT_EQ(small.subscribers[i], large.subscribers[i]) << i;
}

TEST(ScaledCatalog, NamesFollowCatalogOrder) {
  const auto cat = ecosystem::generate_scaled_catalog(12, 100, kSeed);
  for (std::size_t i = 0; i < cat.providers.size(); ++i) {
    EXPECT_EQ(cat.providers[i].spec.name.size(), 9u);
    if (i > 0) {
      EXPECT_LT(cat.providers[i - 1].spec.name, cat.providers[i].spec.name);
    }
  }
  EXPECT_EQ(cat.providers.front().spec.name, "svp-00000");
}

TEST(ScaledCatalog, ResellerAliasingAtScale) {
  // One pair per 62 providers at the fixed offset: svp-00013 resells
  // svp-00012, svp-00075 resells svp-00074, nobody else.
  const auto cat = ecosystem::generate_scaled_catalog(76, 200, kSeed);
  for (std::size_t i = 0; i < cat.providers.size(); ++i) {
    const auto& ep = cat.providers[i];
    if (i == 13 || i == 75) {
      EXPECT_EQ(ep.shares_infrastructure_with,
                cat.providers[i - 1].spec.name);
      EXPECT_EQ(ep.shared_vantage_ids.size(), 4u);
    } else {
      EXPECT_TRUE(ep.shares_infrastructure_with.empty()) << ep.spec.name;
    }
  }

  // The reseller's shard deploys both providers, and every aliased vantage
  // point resolves to the partner's address — shared infrastructure, not a
  // copy that drifted.
  const auto tb = ecosystem::build_scaled_shard(cat, "svp-00013", kSeed);
  ASSERT_NE(tb.world, nullptr);
  ASSERT_EQ(tb.providers.size(), 2u);
  const auto* partner = &tb.providers[0];
  const auto* reseller = &tb.providers[1];
  if (partner->spec.name != "svp-00012") std::swap(partner, reseller);
  ASSERT_EQ(partner->spec.name, "svp-00012");
  ASSERT_EQ(reseller->spec.name, "svp-00013");

  const std::size_t shared =
      std::min<std::size_t>(4u, partner->vantage_points.size());
  ASSERT_GE(reseller->vantage_points.size(), shared);
  for (std::size_t k = 0; k < shared; ++k) {
    const auto* alias = reseller->vantage_point(
        "shared-" + std::to_string(k + 1));
    ASSERT_NE(alias, nullptr);
    EXPECT_EQ(alias->addr.str(), partner->vantage_points[k].addr.str());
  }

  // A non-reseller shard stays single-provider.
  const auto solo = ecosystem::build_scaled_shard(cat, "svp-00007", kSeed);
  ASSERT_NE(solo.world, nullptr);
  EXPECT_EQ(solo.providers.size(), 1u);
}

TEST(ScaledCampaign, PayloadByteIdenticalAcrossJobs) {
  const auto cat = ecosystem::generate_scaled_catalog(24, 1000, kSeed);
  core::ScaledCampaignOptions options;
  options.seed = kSeed;
  options.jobs = 1;
  const auto baseline = core::run_scaled_campaign(cat, options);
  ASSERT_EQ(baseline.shards.size(), 24u);
  EXPECT_EQ(baseline.catalog_fingerprint, cat.fingerprint());

  for (const std::size_t jobs : {2u, 4u, 8u}) {
    options.jobs = jobs;
    const auto report = core::run_scaled_campaign(cat, options);
    EXPECT_EQ(report.payload, baseline.payload) << "jobs=" << jobs;
    EXPECT_EQ(report.payload_fingerprint, baseline.payload_fingerprint);
    EXPECT_EQ(report.catalog_fingerprint, baseline.catalog_fingerprint);
    EXPECT_EQ(report.arena_used_bytes, baseline.arena_used_bytes);
  }
}

}  // namespace
}  // namespace vpna
