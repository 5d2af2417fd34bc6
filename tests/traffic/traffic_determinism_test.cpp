// Determinism contract of the capacity-aware traffic plane: run_streams is
// a pure function of (topology, capacities, specs, fault plan), and a
// speed-test campaign's artifacts are byte-identical at any worker count.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/report_aggregation.h"
#include "analysis/report_writer.h"
#include "core/parallel_campaign.h"
#include "ecosystem/capacity.h"
#include "ecosystem/testbed.h"
#include "transport/stream.h"
#include "util/strings.h"

namespace vpna {
namespace {

// Three providers keep the jobs matrix affordable; NordVPN/ExpressVPN are
// large fleets (several capacitated access links), Seed4.me is small.
const std::vector<std::string> kSubset = {"NordVPN", "ExpressVPN", "Seed4.me"};

core::CampaignOptions speedtest_options(std::size_t jobs) {
  core::CampaignOptions opts;
  opts.runner.vantage_points_per_provider = 2;
  opts.runner.speed_test = true;
  opts.jobs = jobs;
  return opts;
}

// Payload plus the speed-test CSV: the full byte-identity surface.
std::string artifacts_at_jobs(std::size_t jobs, std::uint64_t seed) {
  core::ParallelCampaign campaign(speedtest_options(jobs));
  const auto report = campaign.run(kSubset, seed);
  EXPECT_TRUE(report.failed_providers.empty());
  return analysis::serialize_campaign_payload(report) + "\n---\n" +
         analysis::render_speedtest_csv(report.providers);
}

// Bit-exact transcript of a stream run, every float rendered at full
// precision: any nondeterminism shows up as a byte diff.
std::string transcript(const std::vector<transport::StreamStats>& stats) {
  std::string out;
  for (const auto& s : stats) {
    out += util::format(
        "ran=%d sent=%llu delivered=%llu bytes=%llu qdrop=%llu fdrop=%llu "
        "ecn=%llu loss=%llu dec=%d rto=%d rtt=[%.17g,%.17g,%.17g] "
        "qd=[%.17g,%.17g] cwnd=%.17g\n",
        s.ran ? 1 : 0, static_cast<unsigned long long>(s.sent_packets),
        static_cast<unsigned long long>(s.delivered_packets),
        static_cast<unsigned long long>(s.delivered_bytes),
        static_cast<unsigned long long>(s.queue_drops),
        static_cast<unsigned long long>(s.fault_drops),
        static_cast<unsigned long long>(s.ecn_marks),
        static_cast<unsigned long long>(s.loss_detected), s.cwnd_decreases,
        s.rto_resets, s.base_rtt_ms, s.min_rtt_ms, s.max_rtt_ms,
        s.queue_delay_mean_ms, s.queue_delay_max_ms, s.cwnd_final_bytes);
    for (const auto& t : s.timeline)
      out += util::format("  t=%.17g qd=%.17g cwnd=%.17g\n", t.t_ms,
                          t.queue_delay_ms, t.cwnd_bytes);
  }
  return out;
}

// One mini-world speed-test episode, built from scratch each call.
std::string shard_stream_transcript(std::uint64_t seed) {
  auto tb = ecosystem::build_provider_shard(
      "NordVPN", seed, ecosystem::shared_backbone_plane(),
      faults::FaultProfile::kOff, /*link_capacities=*/true);
  EXPECT_TRUE(tb.world != nullptr);
  std::vector<transport::StreamSpec> specs;
  for (const auto& vp : tb.providers.front().vantage_points) {
    transport::StreamSpec spec;
    spec.src = tb.client;
    spec.dst = vp.addr;
    spec.config.duration_s = 0.5;
    specs.push_back(spec);
    if (specs.size() == 4) break;  // a handful of concurrent flows suffices
  }
  return transcript(transport::run_streams(tb.world->network(), specs));
}

TEST(TrafficDeterminism, RunStreamsIsBitStableAcrossFreshWorlds) {
  const auto a = shard_stream_transcript(20181031);
  const auto b = shard_stream_transcript(20181031);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
  // And genuinely seed-sensitive (different capacities draw differently).
  EXPECT_NE(a, shard_stream_transcript(4242));
}

TEST(TrafficDeterminism, SpeedTestArtifactsByteIdenticalAtAnyJobs) {
  const auto baseline = artifacts_at_jobs(1, 97);
  EXPECT_EQ(baseline, artifacts_at_jobs(2, 97));
  EXPECT_EQ(baseline, artifacts_at_jobs(4, 97));
  EXPECT_EQ(baseline, artifacts_at_jobs(8, 97));
  // The suite really ran: the CSV section carries rows.
  EXPECT_NE(baseline.find("goodput_mbps"), std::string::npos);
}

TEST(TrafficDeterminism, CapacityOffCampaignCarriesNoSpeedTestBytes) {
  // The PR 5 harness proves jobs-independence of the capacity-off payload;
  // this locks the *absence* of the new suite: speed_test=false yields a
  // payload with no speed-test section at any worker count.
  core::CampaignOptions opts;
  opts.runner.vantage_points_per_provider = 2;
  opts.jobs = 1;
  core::ParallelCampaign campaign(opts);
  const auto report = campaign.run(kSubset, 97);
  const auto payload = analysis::serialize_campaign_payload(report);
  EXPECT_EQ(payload.find("goodput_mbps"), std::string::npos);
  EXPECT_TRUE(analysis::render_speedtest_csv(report.providers).empty());
  for (const auto& provider : report.providers)
    for (const auto& vp : provider.vantage_points)
      EXPECT_FALSE(vp.speed_test.ran);

  core::CampaignOptions opts4 = opts;
  opts4.jobs = 4;
  core::ParallelCampaign campaign4(opts4);
  EXPECT_EQ(payload,
            analysis::serialize_campaign_payload(campaign4.run(kSubset, 97)));
}

TEST(TrafficDeterminism, CapacityProvisioningIsAPureFunctionOfTheSeed) {
  const auto count_capacitated = [](ecosystem::Testbed& tb) {
    std::size_t n = 0;
    auto& net = tb.world->network();
    for (const auto& [a, b] : net.link_pairs())
      if (net.link_capacity(a, b) != nullptr) ++n;
    return n;
  };
  auto ta = ecosystem::build_provider_shard(
      "NordVPN", 7, ecosystem::shared_backbone_plane(),
      faults::FaultProfile::kOff, true);
  auto tb = ecosystem::build_provider_shard(
      "NordVPN", 7, ecosystem::shared_backbone_plane(),
      faults::FaultProfile::kOff, true);
  ASSERT_TRUE(ta.world && tb.world);
  EXPECT_GT(count_capacitated(ta), 0u);
  EXPECT_EQ(count_capacitated(ta), count_capacitated(tb));
  // Identical capacity on every link of the two same-seed worlds.
  auto& na = ta.world->network();
  auto& nb = tb.world->network();
  for (const auto& [a, b] : na.link_pairs()) {
    const auto* ca = na.link_capacity(a, b);
    const auto* cb = nb.link_capacity(a, b);
    ASSERT_EQ(ca != nullptr, cb != nullptr);
    if (ca != nullptr) {
      EXPECT_TRUE(*ca == *cb);
    }
  }
}

}  // namespace
}  // namespace vpna
