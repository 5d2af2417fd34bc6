// Determinism contract of the fault plane, at two scales:
//
//  - mini-world: a generated FaultPlan replayed against a fresh network
//    must reproduce byte-identical transcripts, captures and metrics;
//  - campaign: flaky/hostile campaigns must export byte-identical payloads,
//    canonical metrics and chrome traces at 1/2/4/8 workers.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/report_aggregation.h"
#include "analysis/report_writer.h"
#include "core/parallel_campaign.h"
#include "faults/injector.h"
#include "netsim/network.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "transport/flow.h"
#include "util/strings.h"

namespace vpna {
namespace {

using netsim::Cidr;
using netsim::IpAddr;
using netsim::LambdaService;
using netsim::Proto;
using netsim::Route;
using netsim::ServiceContext;

constexpr std::uint16_t kEchoPort = 7777;

// Builds a small chain topology, generates the profile's randomized plan
// for it, drives a scripted traffic pattern across ~4 virtual minutes (so
// the schedule's windows open and close mid-run), and renders everything
// observable — plan, per-exchange outcomes, capture size, canonical
// metrics — into one string for byte comparison.
std::string run_mini_scenario(faults::FaultProfile profile,
                              std::uint64_t seed) {
  util::SimClock clock;
  netsim::Network net(clock, util::Rng(seed), /*jitter_stddev_ms=*/0.0);
  const auto r0 = net.add_router("r0");
  const auto r1 = net.add_router("r1");
  const auto r2 = net.add_router("r2");
  const auto r3 = net.add_router("r3");
  net.add_link(r0, r1, 5.0);
  net.add_link(r1, r2, 8.0);
  net.add_link(r2, r3, 5.0);
  net.add_link(r0, r3, 30.0);  // alternate (slower) path

  netsim::Host client("client");
  client.add_interface("eth0", IpAddr::v4(71, 80, 0, 10), std::nullopt);
  client.routes().add(
      Route{*Cidr::parse("0.0.0.0/0"), "eth0", std::nullopt, 0});
  net.attach_host(client, r0, 1.0);

  std::vector<std::unique_ptr<netsim::Host>> servers;
  std::vector<IpAddr> server_addrs;
  for (int i = 0; i < 3; ++i) {
    auto server = std::make_unique<netsim::Host>("server" + std::to_string(i));
    const auto addr = IpAddr::v4(45, 0, 0, static_cast<std::uint8_t>(10 + i));
    server->add_interface("eth0", addr, std::nullopt);
    server->routes().add(
        Route{*Cidr::parse("0.0.0.0/0"), "eth0", std::nullopt, 0});
    net.attach_host(*server, i == 0 ? r3 : r2, 1.0);
    server->bind_service(
        Proto::kUdp, kEchoPort,
        std::make_shared<LambdaService>(
            [](ServiceContext& ctx) -> std::optional<std::string> {
              return "echo:" + ctx.request.payload;
            }));
    server_addrs.push_back(addr);
    servers.push_back(std::move(server));
  }

  faults::FaultTargets targets;
  targets.router_count = net.router_count();
  targets.links = net.link_pairs();
  targets.vpn_gateways = server_addrs;
  targets.dns_servers = {server_addrs.back()};
  const auto plan = faults::FaultPlan::generate(profile, seed, targets);
  net.set_fault_injector(std::make_shared<faults::Injector>(plan));

  obs::MetricsRegistry metrics;
  std::string transcript = plan.describe();
  {
    obs::ScopedObservation scope(nullptr, &metrics);
    for (int i = 0; i < 120; ++i) {
      netsim::TransactOptions opts;
      opts.timeout_ms = 200.0;
      transport::Flow flow(net, client, Proto::kUdp,
                           server_addrs[static_cast<std::size_t>(i) %
                                        server_addrs.size()],
                           kEchoPort, opts);
      const auto res = flow.exchange(util::format("m%d", i));
      transcript += util::format(
          "%03d t=%.0fms %s %s rtt=%.3f\n", i, clock.now().millis(),
          std::string(netsim::status_name(res.status)).c_str(),
          res.reply.c_str(), res.rtt_ms);
      clock.advance_seconds(2);
    }
  }
  transcript += util::format("capture=%zu\n", client.capture().records().size());
  transcript += metrics.render_text(/*include_volatile=*/false);
  return transcript;
}

class MiniWorldReplay
    : public ::testing::TestWithParam<std::tuple<faults::FaultProfile,
                                                 std::uint64_t>> {};

TEST_P(MiniWorldReplay, ReplayIsByteIdentical) {
  const auto [profile, seed] = GetParam();
  const auto first = run_mini_scenario(profile, seed);
  const auto second = run_mini_scenario(profile, seed);
  EXPECT_EQ(first, second);
  // The schedule must actually have fired for the replay to mean anything.
  EXPECT_NE(first.find("faults.injected"), std::string::npos)
      << "scenario saw no faults — schedule never intersected the traffic";
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, MiniWorldReplay,
    ::testing::Combine(::testing::Values(faults::FaultProfile::kFlaky,
                                         faults::FaultProfile::kHostile),
                       ::testing::Values(1ULL, 7ULL, 42ULL, 20181031ULL)));

// --- Campaign scale -------------------------------------------------------

const std::vector<std::string> kSubset = {"NordVPN", "Anonine"};

struct Exports {
  std::string payload;
  std::string chrome;
  std::string canonical_metrics;
  std::vector<std::string> degraded;
};

Exports run_campaign(faults::FaultProfile profile, std::size_t jobs,
                     std::uint64_t seed) {
  core::CampaignOptions opts;
  opts.runner.vantage_points_per_provider = 2;  // keep the matrix cheap
  opts.runner.fault_profile = profile;
  opts.jobs = jobs;
  opts.trace.enabled = true;
  core::ParallelCampaign campaign(opts);
  const auto report = campaign.run(kSubset, seed);
  EXPECT_TRUE(report.failed_providers.empty());
  Exports out;
  out.payload = analysis::serialize_campaign_payload(report);
  out.chrome = obs::chrome_trace_json(report.traces);
  out.canonical_metrics = analysis::campaign_metrics(report).render_text(
      /*include_volatile=*/false);
  out.degraded = report.degraded_providers;
  return out;
}

class CampaignFaultDeterminism
    : public ::testing::TestWithParam<faults::FaultProfile> {};

TEST_P(CampaignFaultDeterminism, ExportsByteIdenticalAcrossWorkerCounts) {
  const auto profile = GetParam();
  const std::uint64_t seed = 20181031;
  const auto serial = run_campaign(profile, 1, seed);
  ASSERT_FALSE(serial.payload.empty());
  // The profile's schedule injected real faults into the campaign.
  EXPECT_NE(serial.canonical_metrics.find("faults.injected"),
            std::string::npos);

  for (const std::size_t jobs : {2u, 4u, 8u}) {
    const auto parallel = run_campaign(profile, jobs, seed);
    EXPECT_EQ(serial.payload, parallel.payload) << "jobs=" << jobs;
    EXPECT_EQ(serial.chrome, parallel.chrome) << "jobs=" << jobs;
    EXPECT_EQ(serial.canonical_metrics, parallel.canonical_metrics)
        << "jobs=" << jobs;
    EXPECT_EQ(serial.degraded, parallel.degraded) << "jobs=" << jobs;
  }
}

INSTANTIATE_TEST_SUITE_P(Profiles, CampaignFaultDeterminism,
                         ::testing::Values(faults::FaultProfile::kFlaky,
                                           faults::FaultProfile::kHostile));

TEST(CampaignFaultDeterminism, OffProfileMatchesPreFaultBehaviour) {
  // A kOff campaign must serialize byte-identically whether or not the
  // fault plane code is linked and reachable — i.e. identical to a run
  // with default options, which never consults the fault plane.
  const std::uint64_t seed = 4242;
  core::CampaignOptions defaults;
  defaults.runner.vantage_points_per_provider = 2;
  defaults.jobs = 2;
  core::CampaignOptions off = defaults;
  off.runner.fault_profile = faults::FaultProfile::kOff;  // explicit

  core::ParallelCampaign a(defaults);
  core::ParallelCampaign b(off);
  const auto ra = a.run(kSubset, seed);
  const auto rb = b.run(kSubset, seed);
  EXPECT_EQ(analysis::serialize_campaign_payload(ra),
            analysis::serialize_campaign_payload(rb));
  EXPECT_TRUE(ra.degraded_providers.empty());
  EXPECT_TRUE(rb.degraded_providers.empty());
}

TEST(CampaignFaultDeterminism, ProfilesProduceDistinctSchedules) {
  // Sanity: flaky and hostile are actually different campaigns.
  const std::uint64_t seed = 20181031;
  const auto flaky = run_campaign(faults::FaultProfile::kFlaky, 1, seed);
  const auto hostile = run_campaign(faults::FaultProfile::kHostile, 1, seed);
  EXPECT_NE(flaky.canonical_metrics, hostile.canonical_metrics);
}

}  // namespace
}  // namespace vpna
