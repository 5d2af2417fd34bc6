// Determinism contract of the observability layer: the canonicalized trace
// and metrics exports of a campaign are byte-identical at any worker count,
// and turning tracing on does not change the campaign payload itself.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/report_aggregation.h"
#include "analysis/report_writer.h"
#include "core/parallel_campaign.h"
#include "obs/export.h"

namespace vpna {
namespace {

// Same behaviour-covering subset the engine determinism suite uses.
const std::vector<std::string> kSubset = {
    "NordVPN", "ExpressVPN", "Seed4.me", "Anonine", "Boxpn", "Freedome VPN"};

core::CampaignOptions traced_options(std::size_t jobs) {
  core::CampaignOptions opts;
  opts.runner.vantage_points_per_provider = 2;  // keep the matrix cheap
  opts.jobs = jobs;
  opts.trace.enabled = true;
  return opts;
}

struct Exports {
  std::string payload;
  std::string chrome;
  std::string canonical_metrics;
};

Exports run_traced(std::size_t jobs, std::uint64_t seed) {
  core::ParallelCampaign campaign(traced_options(jobs));
  const auto report = campaign.run(kSubset, seed);
  EXPECT_TRUE(report.failed_providers.empty());
  EXPECT_EQ(report.traces.size(), kSubset.size());
  Exports out;
  out.payload = analysis::serialize_campaign_payload(report);
  out.chrome = obs::chrome_trace_json(report.traces);
  out.canonical_metrics =
      analysis::campaign_metrics(report).render_text(/*include_volatile=*/false);
  return out;
}

TEST(TraceDeterminism, ExportsAreByteIdenticalAcrossWorkerCounts) {
  const std::uint64_t seed = 20181031;
  const auto serial = run_traced(1, seed);
  ASSERT_FALSE(serial.chrome.empty());
  ASSERT_FALSE(serial.canonical_metrics.empty());

  const auto parallel = run_traced(4, seed);
  EXPECT_EQ(serial.chrome, parallel.chrome);
  EXPECT_EQ(serial.canonical_metrics, parallel.canonical_metrics);
  EXPECT_EQ(serial.payload, parallel.payload);
}

TEST(TraceDeterminism, TracingDoesNotPerturbTheCampaignPayload) {
  const std::uint64_t seed = 4242;
  auto untraced_opts = traced_options(4);
  untraced_opts.trace = {};  // observation off, everything else identical
  core::ParallelCampaign untraced(untraced_opts);
  core::ParallelCampaign traced(traced_options(4));

  const auto plain = untraced.run(kSubset, seed);
  const auto observed = traced.run(kSubset, seed);
  EXPECT_TRUE(plain.traces.empty());
  EXPECT_EQ(analysis::serialize_campaign_payload(plain),
            analysis::serialize_campaign_payload(observed));
}

TEST(TraceDeterminism, ShardTracesAlignWithProviders) {
  core::ParallelCampaign campaign(traced_options(2));
  const auto report = campaign.run(kSubset, 7);
  ASSERT_EQ(report.traces.size(), report.providers.size());
  for (std::size_t i = 0; i < report.traces.size(); ++i) {
    EXPECT_EQ(report.traces[i].shard, report.providers[i].provider);
    // Every shard ran real work under its root span.
    ASSERT_FALSE(report.traces[i].events.empty());
    EXPECT_EQ(report.traces[i].events.front().name, "shard.run");
    EXPECT_GT(report.traces[i].metrics.counter("net.transact.ok"), 0u);
    EXPECT_GT(report.traces[i].metrics.counter("runner.vantage_points"), 0u);
  }
}

// --trace-hops: per-router-hop instants ride the same canonical export and
// stay byte-identical across worker counts.
TEST(TraceDeterminism, PacketHopInstantsExportIdenticallyAcrossWorkerCounts) {
  const auto hop_trace = [](std::size_t jobs) {
    auto opts = traced_options(jobs);
    opts.trace.packet_hops = true;
    core::ParallelCampaign campaign(opts);
    const auto report = campaign.run({"NordVPN"}, 20181031);
    EXPECT_EQ(report.traces.size(), 1u);
    return report;
  };
  const auto serial = hop_trace(1);
  const auto parallel = hop_trace(4);
  std::size_t hops = 0;
  for (const auto& trace : serial.traces)
    for (const auto& ev : trace.events)
      if (ev.phase == 'i' && ev.name == "net.hop") ++hops;
  EXPECT_GT(hops, 0u);
  EXPECT_EQ(obs::chrome_trace_json(serial.traces),
            obs::chrome_trace_json(parallel.traces));
}

TEST(TraceDeterminism, InstrumentationAppendixIsCanonical) {
  const std::uint64_t seed = 99;
  core::ParallelCampaign serial(traced_options(1));
  core::ParallelCampaign parallel(traced_options(4));
  const auto a =
      analysis::render_paper_artefacts(serial.run(kSubset, seed)).scorecard_md;
  const auto b =
      analysis::render_paper_artefacts(parallel.run(kSubset, seed))
          .scorecard_md;
  const auto appendix = a.find("\n## Appendix: instrumentation");
  ASSERT_NE(appendix, std::string::npos);
  EXPECT_EQ(a, b);
  // Scheduling telemetry must not leak into the appendix.
  EXPECT_EQ(a.find("pool.", appendix), std::string::npos);
}

}  // namespace
}  // namespace vpna
