// Health-plane quarantine contract: enabling the wall-clock profiler, the
// status board (status file + watchdog), or both must leave the campaign
// payload byte-identical to a bare run, at jobs 1 and 4 — every byte the
// health plane produces is telemetry, never payload. Also covers the run
// manifest: equal deterministic inputs give equal key sections, and the
// payload/catalog fingerprints behave as cache keys.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "analysis/manifest.h"
#include "analysis/report_aggregation.h"
#include "core/parallel_campaign.h"
#include "ecosystem/evaluated.h"
#include "ecosystem/testbed.h"
#include "obs/profiler.h"
#include "util/rng.h"
#include "util/strings.h"

namespace vpna {
namespace {

const std::vector<std::string> kSubset = {"NordVPN", "Seed4.me", "Anonine",
                                          "Boxpn"};

core::CampaignOptions base_options(std::size_t jobs) {
  core::CampaignOptions opts;
  opts.runner.vantage_points_per_provider = 2;
  opts.jobs = jobs;
  return opts;
}

std::string run_payload(const core::CampaignOptions& opts,
                        std::uint64_t seed) {
  core::ParallelCampaign campaign(opts);
  const auto report = campaign.run(kSubset, seed);
  EXPECT_TRUE(report.failed_providers.empty());
  return analysis::serialize_campaign_payload(report);
}

class HealthPlaneTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Profiler::disable();
    obs::Profiler::instance().reset();
    // One directory per case and process: ctest runs the cases in
    // parallel, and a shared directory let one TearDown delete another
    // case's status files.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           ("vpna_health_plane_" + std::string(info->name()) + "_" +
            std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    obs::Profiler::disable();
    obs::Profiler::instance().reset();
    std::filesystem::remove_all(dir_);
  }
  std::filesystem::path dir_;
};

TEST_F(HealthPlaneTest, PayloadByteIdenticalWithProfilerAndStatusEnabled) {
  const std::uint64_t seed = 20181031;
  const std::string bare = run_payload(base_options(1), seed);
  ASSERT_FALSE(bare.empty());

  for (std::size_t jobs : {1u, 4u}) {
    auto opts = base_options(jobs);
    opts.status.file =
        (dir_ / ("status-" + std::to_string(jobs) + ".json")).string();
    opts.status.watchdog_multiple = 3.0;
    obs::Profiler::enable();
    const std::string instrumented = run_payload(opts, seed);
    obs::Profiler::disable();
    EXPECT_EQ(bare, instrumented)
        << "health plane leaked into the payload at jobs=" << jobs;
    // The monitor's final tick leaves a status file reporting completion.
    std::ifstream in(opts.status.file);
    ASSERT_TRUE(in.good()) << "status file missing at jobs=" << jobs;
    std::stringstream content;
    content << in.rdbuf();
    EXPECT_NE(content.str().find("\"percent\": 100.0"), std::string::npos);
    EXPECT_NE(content.str().find("\"total\": 4"), std::string::npos);
  }

  // The profiler actually observed the instrumented phases.
  obs::Profiler::enable();  // report() is independent of the flag; re-check
  const auto report = obs::Profiler::instance().report();
  bool saw_shard_run = false;
  for (const auto& phase : report.phases)
    if (phase.name == "shard.run") saw_shard_run = true;
  EXPECT_TRUE(saw_shard_run);
}

// One scope per seam: the profile reaches the layers under the suites, and
// no site opens a second frame on top of its own span.
TEST_F(HealthPlaneTest, ProfileReachesTheLayerSeamsWithoutStackedScopes) {
  obs::Profiler::enable();
  (void)run_payload(base_options(2), 20181031);
  obs::Profiler::disable();
  const auto report = obs::Profiler::instance().report(/*flame_top_n=*/100000);
  std::vector<std::string> stacked = {"shard.run;shard.run"};
  const auto has_phase = [&](const std::string& name) {
    for (const auto& phase : report.phases)
      if (phase.name == name) return true;
    return false;
  };
  for (const auto& phase : report.phases)
    if (phase.name.rfind("test.", 0) == 0)
      stacked.push_back(phase.name + ";" + phase.name);
  EXPECT_TRUE(has_phase("net.transact"));
  EXPECT_TRUE(has_phase("tls.handshake"));
  EXPECT_TRUE(has_phase("dns.query"));
  EXPECT_TRUE(has_phase("test.tls"));
  for (const auto& row : report.flame)
    for (const auto& dup : stacked)
      EXPECT_EQ(row.path.find(dup), std::string::npos) << row.path;
}

TEST_F(HealthPlaneTest, StatusFileAloneEngagesTheMonitor) {
  auto opts = base_options(2);
  opts.status.file = (dir_ / "status.json").string();
  EXPECT_TRUE(opts.status.engaged());
  core::ParallelCampaign campaign(opts);
  const auto report = campaign.run(kSubset, 3);
  EXPECT_TRUE(report.watchdog_alerts.empty());  // watchdog off by default
  EXPECT_TRUE(std::filesystem::exists(opts.status.file));
}

// A partially warm store, more hits than misses: a replayed shard settles
// straight from pending, so only the shards computed this run feed the
// median — the status file's median_shard_s is a real shard wall, and the
// armed watchdog flags no healthy shard. In-process at jobs 1 and isolated
// at jobs 2, since both backends share one board.
TEST_F(HealthPlaneTest, ReplayedShardsNeverFeedTheMedian) {
  const std::uint64_t seed = 20181031;
  const std::vector<std::string> all = {
      "NordVPN", "ExpressVPN", "Seed4.me",   "Anonine",  "Boxpn",
      "Freedome VPN", "TunnelBear", "IPVanish", "HideMyAss", "AceVPN"};
  const std::vector<std::string> warm(all.begin(), all.begin() + 6);
  store::CacheConfig cache;
  cache.dir = (dir_ / "store").string();
  cache.mode = store::CacheMode::kReadWrite;
  {
    auto opts = base_options(4);
    opts.cache = cache;
    core::ParallelCampaign campaign(opts);
    (void)campaign.run(warm, seed);
  }
  // Read-only, so both runs below see the same 6 hits and 4 misses.
  cache.mode = store::CacheMode::kReadOnly;

  for (const bool isolate : {false, true}) {
    SCOPED_TRACE(isolate ? "isolated jobs 2" : "in-process jobs 1");
    auto opts = base_options(isolate ? 2 : 1);
    opts.isolate = isolate;
    opts.cache = cache;
    opts.status.file =
        (dir_ / (isolate ? "status-iso.json" : "status.json")).string();
    opts.status.watchdog_multiple = 10.0;
    core::ParallelCampaign campaign(opts);
    const auto report = campaign.run(all, seed);
    const auto summary = core::summarize_cache(report.cache_records);
    ASSERT_EQ(summary.hits, warm.size());
    ASSERT_EQ(summary.misses, all.size() - warm.size());
    EXPECT_TRUE(report.watchdog_alerts.empty());

    std::ifstream in(opts.status.file);
    ASSERT_TRUE(in.good());
    std::stringstream content;
    content << in.rdbuf();
    const std::string json = content.str();
    const std::string key = "\"median_shard_s\": ";
    const auto at = json.find(key);
    ASSERT_NE(at, std::string::npos);
    EXPECT_GT(std::stod(json.substr(at + key.size())), 0.0) << json;
    EXPECT_NE(json.find("\"watchdog\": []"), std::string::npos) << json;
    EXPECT_NE(json.find("\"percent\": 100.0"), std::string::npos) << json;
  }
}

TEST_F(HealthPlaneTest, ManifestKeySectionIsDeterministic) {
  const std::uint64_t seed = 20181031;
  const auto opts = base_options(1);
  core::ParallelCampaign campaign(opts);
  const auto a = campaign.run(kSubset, seed);
  const auto b = campaign.run(kSubset, seed);
  const auto payload_a = analysis::serialize_campaign_payload(a);
  const auto payload_b = analysis::serialize_campaign_payload(b);

  const auto json_a = analysis::render_manifest_json(opts, a, payload_a);
  const auto json_b = analysis::render_manifest_json(opts, b, payload_b);
  const auto key_of = [](const std::string& json) {
    return json.substr(0, json.find("\"run\""));
  };
  // The key section is byte-stable across equal runs.
  EXPECT_EQ(key_of(json_a), key_of(json_b));
  const auto key_a = key_of(json_a);
  const auto catalog_field =
      util::format("\"catalog_fingerprint\": \"%016llx\"",
                   static_cast<unsigned long long>(
                       ecosystem::catalog_fingerprint()));
  EXPECT_NE(key_a.find(catalog_field), std::string::npos) << key_a;
  EXPECT_NE(key_a.find(util::format("\"campaign_seed\": %llu",
                                    static_cast<unsigned long long>(seed))),
            std::string::npos);
  EXPECT_NE(json_a.find("\"watchdog\""), std::string::npos);

  // Shard seeds are the documented pure function of (seed, provider), one
  // per provider in canonical catalog order.
  const auto seed_row = [](const std::string& provider, std::uint64_t s) {
    return util::format(
        "{\"provider\": \"%s\", \"seed\": \"%016llx\"}", provider.c_str(),
        static_cast<unsigned long long>(ecosystem::shard_seed(s, provider)));
  };
  ASSERT_EQ(a.providers.size(), kSubset.size());
  std::size_t last = 0;
  for (const auto& provider : a.providers) {
    const auto at = key_a.find(seed_row(provider.provider, seed));
    ASSERT_NE(at, std::string::npos) << provider.provider;
    EXPECT_GT(at, last);
    last = at;
  }

  // The payload fingerprint is exactly FNV-1a over the payload bytes — the
  // same hash a content-addressed store would key on — so any byte change
  // in the payload changes the key.
  const auto fp_field = [](const std::string& payload) {
    return util::format("\"payload_fingerprint\": \"%016llx\"",
                        static_cast<unsigned long long>(util::fnv1a(payload)));
  };
  EXPECT_NE(key_a.find(fp_field(payload_a)), std::string::npos);
  EXPECT_EQ(key_a.find(fp_field(payload_a + "x")), std::string::npos);

  // A different campaign seed changes the per-shard seeds (the key), never
  // the catalog fingerprint.
  const auto c = campaign.run(kSubset, seed + 1);
  const auto key_c = key_of(analysis::render_manifest_json(
      opts, c, analysis::serialize_campaign_payload(c)));
  EXPECT_NE(key_c, key_a);
  EXPECT_NE(key_c.find(catalog_field), std::string::npos);
  EXPECT_NE(key_c.find(util::format("\"campaign_seed\": %llu",
                                    static_cast<unsigned long long>(seed + 1))),
            std::string::npos);
  for (const auto& provider : c.providers) {
    EXPECT_NE(key_c.find(seed_row(provider.provider, seed + 1)),
              std::string::npos);
    EXPECT_EQ(key_c.find(seed_row(provider.provider, seed)),
              std::string::npos);
  }
}

TEST_F(HealthPlaneTest, CatalogFingerprintIsStableWithinAProcess) {
  EXPECT_EQ(ecosystem::catalog_fingerprint(), ecosystem::catalog_fingerprint());
  EXPECT_NE(ecosystem::catalog_fingerprint(), 0u);
}

}  // namespace
}  // namespace vpna
