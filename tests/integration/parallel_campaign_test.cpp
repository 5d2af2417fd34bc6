// Determinism contract of the parallel campaign engine: the same campaign
// seed must yield a byte-identical aggregated payload whether shards run
// serially or on 2/4/8 workers, and regardless of the caller's name order.
#include "core/parallel_campaign.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/report_aggregation.h"
#include "core/report_codec.h"
#include "core/runner.h"
#include "ecosystem/testbed.h"

namespace vpna {
namespace {

// Six providers covering the interesting behaviours: a reseller pair
// (exact-IP aliasing), the content injector, a DNS leaker, and two large
// mainstream fleets.
const std::vector<std::string> kSubset = {
    "NordVPN", "ExpressVPN", "Seed4.me", "Anonine", "Boxpn", "Freedome VPN"};

core::CampaignOptions subset_options(std::size_t jobs) {
  core::CampaignOptions opts;
  opts.runner.vantage_points_per_provider = 2;  // keep the matrix cheap
  opts.jobs = jobs;
  return opts;
}

std::string payload_at_jobs(std::size_t jobs, std::uint64_t seed,
                            std::vector<std::string> names = kSubset) {
  core::ParallelCampaign campaign(subset_options(jobs));
  const auto report = campaign.run(names, seed);
  EXPECT_TRUE(report.failed_providers.empty());
  EXPECT_EQ(report.providers.size(), names.size());
  return analysis::serialize_campaign_payload(report);
}

TEST(ParallelCampaign, SerialAndParallelPayloadsAreByteIdentical) {
  const std::uint64_t seed = 20181031;
  const std::string serial = payload_at_jobs(1, seed);
  ASSERT_FALSE(serial.empty());
  for (std::size_t jobs : {2u, 4u, 8u}) {
    const std::string parallel = payload_at_jobs(jobs, seed);
    EXPECT_EQ(serial, parallel) << "payload diverged at jobs=" << jobs;
  }
}

TEST(ParallelCampaign, CallerNameOrderDoesNotMatter) {
  const std::uint64_t seed = 7;
  std::vector<std::string> shuffled = {"Boxpn",   "Freedome VPN", "Seed4.me",
                                       "NordVPN", "Anonine",      "ExpressVPN"};
  EXPECT_EQ(payload_at_jobs(4, seed, kSubset),
            payload_at_jobs(4, seed, shuffled));
}

TEST(ParallelCampaign, ReportsMergeInCanonicalCatalogOrder) {
  core::ParallelCampaign campaign(subset_options(4));
  const auto a = campaign.run(kSubset, 3);
  std::vector<std::string> shuffled = {"Seed4.me", "Boxpn",        "ExpressVPN",
                                       "Anonine",  "Freedome VPN", "NordVPN"};
  const auto b = campaign.run(shuffled, 3);
  ASSERT_EQ(a.providers.size(), b.providers.size());
  for (std::size_t i = 0; i < a.providers.size(); ++i)
    EXPECT_EQ(a.providers[i].provider, b.providers[i].provider);
}

TEST(ParallelCampaign, UnknownNamesAreDroppedAndDuplicatesCollapsed) {
  core::ParallelCampaign campaign(subset_options(2));
  const auto report =
      campaign.run({"NordVPN", "NoSuchVPN", "NordVPN", "Seed4.me"}, 11);
  ASSERT_EQ(report.providers.size(), 2u);
  EXPECT_TRUE(report.failed_providers.empty());
}

TEST(ParallelCampaign, WorkerCountersAccountForEveryShard) {
  core::ParallelCampaign campaign(subset_options(4));
  const auto report = campaign.run(kSubset, 5);
  EXPECT_EQ(report.jobs, 4u);
  const auto summary = analysis::summarize_campaign(report);
  EXPECT_EQ(summary.providers, kSubset.size());
  EXPECT_EQ(summary.tasks_run, kSubset.size());  // no retries expected
  EXPECT_EQ(summary.retries, 0u);
  EXPECT_EQ(summary.failed_shards, 0u);
  EXPECT_GT(summary.busy_wall_s, 0.0);
  EXPECT_GT(summary.wall_s, 0.0);
}

TEST(ParallelCampaign, ResellerAliasingSurvivesShardIsolation) {
  // Anonine's shard must deploy Boxpn too, so the four shared vantage
  // points alias onto partner hosts exactly as in the monolithic testbed.
  core::RunnerOptions all;
  all.vantage_points_per_provider = 0;  // aliases sit late in the roster
  const auto full = core::run_provider_shard("Anonine", 20181031, all);
  int shared = 0;
  for (const auto& vp : full.vantage_points)
    if (vp.vantage_id.rfind("shared-", 0) == 0) ++shared;
  EXPECT_EQ(shared, 4);
}

TEST(ParallelCampaign, ShardReportIsPureFunctionOfNameAndSeed) {
  core::RunnerOptions opts;
  opts.vantage_points_per_provider = 2;
  const auto a = core::run_provider_shard("NordVPN", 99, opts);
  const auto b = core::run_provider_shard("NordVPN", 99, opts);
  ASSERT_EQ(a.vantage_points.size(), b.vantage_points.size());
  for (std::size_t i = 0; i < a.vantage_points.size(); ++i) {
    EXPECT_EQ(a.vantage_points[i].vantage_id, b.vantage_points[i].vantage_id);
    EXPECT_EQ(a.vantage_points[i].egress_addr, b.vantage_points[i].egress_addr);
    EXPECT_EQ(a.vantage_points[i].connected, b.vantage_points[i].connected);
  }
}

TEST(ParallelCampaign, UnknownShardNameThrows) {
  core::RunnerOptions opts;
  EXPECT_THROW(core::run_provider_shard("NoSuchVPN", 1, opts),
               std::invalid_argument);
}

TEST(ParallelCampaign, ShardAdoptsSharedPlaneByFingerprint) {
  // The routing plane is a pure accelerator: a shard that adopts the
  // process-wide plane (as every campaign shard does) reports exactly what
  // a shard computing all-pairs routes for itself reports.
  const auto plane = ecosystem::shared_backbone_plane();
  ASSERT_NE(plane, nullptr);
  core::RunnerOptions opts;
  opts.vantage_points_per_provider = 1;
  const auto with = core::run_provider_shard("Seed4.me", 42, opts, plane);
  const auto without = core::run_provider_shard("Seed4.me", 42, opts);
  ASSERT_EQ(with.vantage_points.size(), without.vantage_points.size());
  for (std::size_t i = 0; i < with.vantage_points.size(); ++i) {
    EXPECT_EQ(with.vantage_points[i].egress_addr,
              without.vantage_points[i].egress_addr);
    EXPECT_EQ(with.vantage_points[i].connected,
              without.vantage_points[i].connected);
  }

  // The world base is as pure as the plane: a fresh, non-singleton base
  // fingerprints like the process base, and a shard built on it encodes
  // byte-identically to one built on the process base.
  const auto fresh = inet::WorldBase::build();
  ASSERT_NE(fresh, inet::WorldBase::shared());
  EXPECT_EQ(fresh->fingerprint(), inet::WorldBase::shared()->fingerprint());
  const auto encoded = [&](std::shared_ptr<const inet::WorldBase> base) {
    auto tb = ecosystem::build_provider_shard(
        "Seed4.me", 42, base->routing_plane(), faults::FaultProfile::kOff,
        false, base);
    core::TestRunner runner(tb, opts);
    runner.collect_ground_truth();
    return core::encode_provider_report(
        runner.run_provider(*tb.provider("Seed4.me")));
  };
  const auto on_fresh = encoded(fresh);
  EXPECT_EQ(on_fresh, encoded(inet::WorldBase::shared()));
  EXPECT_EQ(on_fresh, core::encode_provider_report(with));
}

}  // namespace
}  // namespace vpna
