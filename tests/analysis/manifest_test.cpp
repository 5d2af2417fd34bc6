// Run-manifest rendering pinned byte for byte: a hand-built paper report
// and a hand-built census report, each with fixed telemetry, render to
// JSON whose FNV-1a is pinned. The `build` object names the compiler, which
// varies by toolchain, so it is cut out before hashing. The pins also cover
// store::kCodeEpoch and the runner-options fingerprints; a code-epoch bump
// moves them.
#include "analysis/manifest.h"

#include <gtest/gtest.h>

#include <string>

#include "analysis/report_aggregation.h"
#include "core/parallel_campaign.h"
#include "util/rng.h"

namespace vpna::analysis {
namespace {

// The JSON without its `build` object.
std::string without_build(std::string json) {
  const auto at = json.find("  \"build\": {\n");
  EXPECT_NE(at, std::string::npos);
  if (at == std::string::npos) return json;
  const auto end = json.find("  },\n", at);
  json.erase(at, end + 5 - at);
  return json;
}

core::ShardCacheRecord cache_record(const char* provider, const char* key,
                                    core::ShardCacheRecord::Outcome outcome,
                                    bool stored, std::uint64_t bytes) {
  core::ShardCacheRecord r;
  r.provider = provider;
  r.key_id = key;
  r.outcome = outcome;
  r.stored = stored;
  r.bytes = bytes;
  return r;
}

// An isolated flaky-profile campaign over three providers: one shard
// quarantined by the fault profile, one with a degraded vantage point, and
// one whose worker crashed every attempt.
core::CampaignReport paper_report() {
  using Outcome = core::ShardCacheRecord::Outcome;
  core::CampaignReport report;
  report.seed = 20181031;
  report.jobs = 2;
  report.execution_isolated = true;
  report.retries = 3;
  report.wall_s = 1.25;
  report.resumed_shards = 1;
  report.process_spawns = 4;
  report.process_crashes = 2;
  report.process_kills = 1;
  report.crash_quarantined_providers = {"Seed4.me"};
  report.watchdog_alerts = {{"Seed4.me", 1, 7.5, 0.5}};
  obs::ProcessStatus slot0;
  slot0.slot = 0;
  slot0.spawns = 1;
  slot0.shards_done = 2;
  obs::ProcessStatus slot1;
  slot1.slot = 1;
  slot1.spawns = 3;
  slot1.crashes = 2;
  report.processes = {slot0, slot1};
  report.cache_records = {
      cache_record("NordVPN", "00112233445566778899aabbccddeeff", Outcome::kHit,
                   false, 4096),
      cache_record("Anonine", "ffeeddccbbaa99887766554433221100",
                   Outcome::kCorrupt, true, 2048),
      cache_record("Seed4.me", "0123456789abcdef0123456789abcdef",
                   Outcome::kMiss, false, 0)};

  core::ProviderReport quarantined;
  quarantined.provider = "NordVPN";
  quarantined.quarantined = true;
  core::ProviderReport degraded;
  degraded.provider = "Anonine";
  core::VantagePointReport lost;
  lost.vantage_id = "us-east-1";
  lost.degradation.degraded = true;
  core::VantagePointReport healthy;
  healthy.vantage_id = "eu-west-1";
  healthy.connected = true;
  degraded.vantage_points = {lost, healthy};
  core::ProviderReport crashed;
  crashed.provider = "Seed4.me";
  report.providers = {quarantined, degraded, crashed};
  report.degraded_providers = {"NordVPN", "Anonine"};
  return report;
}

core::CampaignOptions paper_options() {
  core::CampaignOptions opts;
  opts.jobs = 2;
  opts.shard_attempts = 2;
  opts.isolate = true;
  opts.resume = true;
  opts.journal_path = "out/campaign.journal";
  opts.cache.dir = "cache";
  opts.cache.mode = store::CacheMode::kReadWrite;
  opts.runner.vantage_points_per_provider = 3;
  opts.runner.fault_profile = faults::FaultProfile::kFlaky;
  opts.trace.enabled = true;
  return opts;
}

// An in-process census over four shards with pool counters.
core::ScaledCampaignReport scaled_report() {
  using Outcome = core::ShardCacheRecord::Outcome;
  core::ScaledCampaignReport report;
  report.seed = 7;
  report.jobs = 4;
  report.retries = 1;
  report.wall_s = 0.5;
  report.catalog_fingerprint = 0x0123456789abcdefULL;
  report.payload_fingerprint = 0xfedcba9876543210ULL;
  report.failed_providers = {"scaled-0002"};
  for (int i = 0; i < 4; ++i) {
    core::ScaledShardCensus shard;
    shard.provider = "scaled-000" + std::to_string(i);
    report.shards.push_back(shard);
  }
  report.workers = {{2, 0, 0.25, 0.125}, {1, 1, 0.125, 0.0625},
                    {1, 0, 0.0625, 0.03125}, {1, 2, 0.5, 0.25}};
  report.cache_records = {
      cache_record("scaled-0000", "aa", Outcome::kHit, false, 100),
      cache_record("scaled-0001", "bb", Outcome::kMiss, true, 200),
      cache_record("scaled-0002", "cc", Outcome::kBypass, false, 0),
      cache_record("scaled-0003", "dd", Outcome::kMiss, true, 300)};
  return report;
}

core::ScaledCampaignOptions scaled_options() {
  core::ScaledCampaignOptions opts;
  opts.seed = 7;
  opts.jobs = 4;
  opts.max_clients = 4;
  opts.cache.dir = "census-cache";
  opts.cache.mode = store::CacheMode::kReadOnly;
  return opts;
}

TEST(ManifestJson, PaperIsPinned) {
  const auto json =
      render_manifest_json(paper_options(), paper_report(), "payload bytes");
  EXPECT_EQ(util::fnv1a(without_build(json)), 0x4e626383492f37b8ULL) << json;
}

TEST(ManifestJson, ScaledIsPinned) {
  const auto json =
      render_scaled_manifest_json(scaled_report(), scaled_options());
  EXPECT_EQ(util::fnv1a(without_build(json)), 0xc895482ec6be735fULL) << json;
}

}  // namespace
}  // namespace vpna::analysis
