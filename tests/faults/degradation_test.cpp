// Graceful-degradation contract: under an active fault profile, exhausted
// shards quarantine (structured outcome, exit 0) instead of hard-failing
// the campaign; the degradation appendix renders what gave up and why; and
// campaign_exit_code fails a run only for hard shard failures.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/report_aggregation.h"
#include "analysis/report_writer.h"
#include "core/parallel_campaign.h"
#include "core/runner.h"
#include "ecosystem/testbed.h"
#include "faults/injector.h"
#include "faults/profile.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "transport/policy.h"

namespace vpna {
namespace {

// --- campaign_exit_code ---------------------------------------------------

TEST(CampaignExitCode, CleanRunExitsZero) {
  core::ExecutionReport report;
  EXPECT_EQ(analysis::campaign_exit_code(report), 0);
}

TEST(CampaignExitCode, DegradationStillExitsZero) {
  // Degraded-but-complete is a success by contract: the payload is complete
  // and every give-up is recorded as structured data.
  core::CampaignReport report;
  report.providers.resize(1);
  report.providers[0].provider = "QuarantinedVPN";
  report.providers[0].quarantined = true;
  report.degraded_providers = {"QuarantinedVPN"};
  EXPECT_EQ(analysis::campaign_exit_code(report), 0);
}

TEST(CampaignExitCode, HardShardFailureExitsNonZero) {
  core::ExecutionReport report;
  report.failed_providers = {"NordVPN"};
  EXPECT_EQ(analysis::campaign_exit_code(report), 1);
}

TEST(CampaignExitCode, InterruptOutranksFailureOutranksCrashQuarantine) {
  core::ExecutionReport report;
  report.crash_quarantined_providers = {"Anonine"};
  EXPECT_EQ(analysis::campaign_exit_code(report), 3);
  report.failed_providers = {"NordVPN"};
  EXPECT_EQ(analysis::campaign_exit_code(report), 1);
  report.interrupted = true;
  EXPECT_EQ(analysis::campaign_exit_code(report), 130);
}

// --- fault attribution on a real degraded connect ------------------------

struct DarkConnect {
  core::VantagePointReport vp;
  std::string first_vantage_id;
  std::uint64_t injected = 0;  // the injector's count across the run
};

// Runs NordVPN's first vantage point under the flaky profile's session
// policy, with an injector whose plan darkens that vantage point's address
// for the whole run, so every connect attempt is dropped.
DarkConnect run_dark_connect() {
  auto tb = ecosystem::build_provider_shard("NordVPN", 20181031);
  const auto* provider = tb.provider("NordVPN");
  faults::FaultPlan plan;
  plan.seed = 1;
  faults::AddrOutage outage;
  outage.addr = provider->vantage_points.front().addr;
  outage.window = {0.0, 1e12, 0.0};
  plan.addr_outages.push_back(outage);
  tb.fault_injector = std::make_shared<faults::Injector>(std::move(plan));
  tb.world->network().set_fault_injector(tb.fault_injector);

  transport::ScopedSessionPolicy policy(
      faults::session_policy_for(faults::FaultProfile::kFlaky));
  core::RunnerOptions options;
  options.fault_profile = faults::FaultProfile::kFlaky;
  options.vantage_points_per_provider = 1;
  core::TestRunner runner(tb, options);
  const std::uint64_t before = tb.fault_injector->injected();
  auto report = runner.run_provider(*provider);
  EXPECT_EQ(report.vantage_points.size(), 1u);
  return {report.vantage_points.at(0),
          provider->vantage_points.front().spec.id,
          tb.fault_injector->injected() - before};
}

TEST(FaultAttribution, DegradedConnectCountsEachInjectedFaultOnce) {
  const auto run = run_dark_connect();
  EXPECT_EQ(run.vp.vantage_id, run.first_vantage_id);
  EXPECT_FALSE(run.vp.connected);
  const auto& d = run.vp.degradation;
  ASSERT_TRUE(d.degraded);
  EXPECT_EQ(d.stage, "connect");
  EXPECT_EQ(d.attempts, core::RunnerOptions{}.connect_attempts);
  EXPECT_GT(d.faults_seen, 0u);
  EXPECT_EQ(d.faults_seen, run.injected);
}

TEST(FaultAttribution, TracedRunCountsWhatTheRegistryCounts) {
  const auto untraced = run_dark_connect();

  obs::TraceRecorder recorder(obs::TraceConfig{.enabled = true});
  obs::MetricsRegistry metrics;
  DarkConnect traced;
  {
    obs::ScopedObservation scope(&recorder, &metrics);
    traced = run_dark_connect();
  }
  ASSERT_TRUE(traced.vp.degradation.degraded);
  EXPECT_EQ(traced.vp.degradation.faults_seen,
            metrics.counter("faults.injected"));
  EXPECT_EQ(traced.vp.degradation.faults_seen, traced.injected);
  // Observation never moves the count.
  EXPECT_EQ(traced.vp.degradation.faults_seen,
            untraced.vp.degradation.faults_seen);
}

// --- synthetic report: tallies + appendix ---------------------------------

core::CampaignReport synthetic_degraded_report() {
  core::CampaignReport report;

  core::ProviderReport quarantined;
  quarantined.provider = "QuarantinedVPN";
  quarantined.quarantined = true;

  core::ProviderReport degraded;
  degraded.provider = "DegradedVPN";
  core::VantagePointReport vp;
  vp.provider = "DegradedVPN";
  vp.vantage_id = "us-east-1";
  vp.degradation.degraded = true;
  vp.degradation.stage = "connect";
  vp.degradation.error = transport::Error::from_status(
      netsim::TransactStatus::kDropped);
  vp.degradation.attempts = 3;
  vp.degradation.faults_seen = 7;
  degraded.vantage_points.push_back(vp);
  core::VantagePointReport healthy;
  healthy.provider = "DegradedVPN";
  healthy.vantage_id = "eu-west-1";
  healthy.connected = true;
  degraded.vantage_points.push_back(healthy);

  core::ProviderReport clean;
  clean.provider = "CleanVPN";
  clean.vantage_points.push_back(healthy);

  report.providers = {quarantined, degraded, clean};
  report.degraded_providers = {"QuarantinedVPN", "DegradedVPN"};
  return report;
}

TEST(DegradationSummary, TalliesQuarantineAndDegradedVantagePoints) {
  const auto report = synthetic_degraded_report();
  const auto tally = analysis::tally_degradation(report);
  EXPECT_EQ(tally.quarantined_shards, 1u);
  EXPECT_EQ(tally.degraded_vantage_points, 1u);
  EXPECT_EQ(report.degraded_providers.size(), 2u);
  EXPECT_EQ(analysis::campaign_exit_code(report), 0);
}

TEST(DegradationAppendix, EmptyWhenNothingDegraded) {
  core::CampaignReport report;
  core::ProviderReport clean;
  clean.provider = "CleanVPN";
  report.providers.push_back(clean);
  EXPECT_EQ(analysis::render_degradation_appendix(report), "");
}

TEST(DegradationAppendix, RendersQuarantineAndGiveUpLines) {
  const auto appendix =
      analysis::render_degradation_appendix(synthetic_degraded_report());
  EXPECT_NE(appendix.find("Appendix: degradation"), std::string::npos);
  EXPECT_NE(appendix.find("QuarantinedVPN"), std::string::npos);
  EXPECT_NE(appendix.find("quarantined"), std::string::npos);
  EXPECT_NE(appendix.find("DegradedVPN"), std::string::npos);
  EXPECT_NE(appendix.find("us-east-1"), std::string::npos);
  EXPECT_NE(appendix.find("connect"), std::string::npos);
  EXPECT_NE(appendix.find("3 attempt"), std::string::npos);
  EXPECT_NE(appendix.find(transport::error_name(
                transport::Error::from_status(
                    netsim::TransactStatus::kDropped))),
            std::string::npos);
  // The healthy provider never appears.
  EXPECT_EQ(appendix.find("CleanVPN"), std::string::npos);
}

// The one render lays the pieces out as the files and the payload expect:
// the scorecard closes with the degradation appendix, the payload is the
// serialization's bytes, and an untraced run has no metrics text.
TEST(DegradationAppendix, ClosesTheScorecardAndThePayload) {
  const auto report = synthetic_degraded_report();
  const auto appendix = analysis::render_degradation_appendix(report);
  const auto artefacts = analysis::render_paper_artefacts(report);
  EXPECT_EQ(artefacts.payload, analysis::serialize_campaign_payload(report));
  EXPECT_EQ(artefacts.campaign_csv,
            analysis::render_campaign_csv(report.providers));
  std::string scorecard = analysis::render_scorecard(report.providers);
  for (const auto& provider : report.providers)
    scorecard += "\n" + analysis::render_provider_markdown(provider);
  EXPECT_EQ(artefacts.scorecard_md, scorecard + appendix);
  ASSERT_GE(artefacts.payload.size(), appendix.size());
  EXPECT_EQ(artefacts.payload.substr(artefacts.payload.size() -
                                     appendix.size()),
            appendix);
  EXPECT_TRUE(artefacts.speedtest_csv.empty());
  EXPECT_TRUE(artefacts.metrics_text.empty());
}

// --- end-to-end quarantine via the campaign engine ------------------------

// Both shard-executor backends, from one table: every case below runs on
// each. The isolated backend runs forked worker processes.
struct Backend {
  const char* name;
  bool isolate;
};
constexpr Backend kBackends[] = {{"in-process", false}, {"isolated", true}};

// Scoped failure injection: VPNA_CRASH_SHARD=0:throw:always makes shard
// 0's compute hook throw on every attempt, so it exhausts its budget
// deterministically while shard 1 runs normally.
class InjectedThrow {
 public:
  explicit InjectedThrow(const char* spec) {
    ::setenv("VPNA_CRASH_SHARD", spec, 1);
  }
  ~InjectedThrow() { ::unsetenv("VPNA_CRASH_SHARD"); }
};

core::CampaignOptions exhausted_shard_options(faults::FaultProfile profile,
                                              const Backend& backend) {
  core::CampaignOptions opts;
  opts.runner.vantage_points_per_provider = 1;
  opts.runner.fault_profile = profile;
  opts.jobs = 2;
  opts.shard_attempts = 2;
  opts.isolate = backend.isolate;
  return opts;
}

const std::vector<std::string> kSubset = {"NordVPN", "Anonine"};

TEST(QuarantineIntegration, FaultProfileQuarantinesExhaustedShards) {
  const InjectedThrow inject("0:throw:always");
  for (const auto& backend : kBackends) {
    SCOPED_TRACE(backend.name);
    core::ParallelCampaign campaign(
        exhausted_shard_options(faults::FaultProfile::kFlaky, backend));
    const auto report = campaign.run(kSubset, 99);

    // Shard 0 exhausted its budget — but the run degrades, not fails.
    ASSERT_EQ(report.providers.size(), 2u);
    EXPECT_TRUE(report.failed_providers.empty());
    EXPECT_TRUE(report.crash_quarantined_providers.empty());
    const auto& lost = report.providers[0];
    EXPECT_TRUE(lost.quarantined);
    EXPECT_TRUE(lost.degraded());
    EXPECT_TRUE(lost.vantage_points.empty());
    EXPECT_FALSE(report.providers[1].quarantined);
    EXPECT_FALSE(report.providers[1].vantage_points.empty());
    ASSERT_FALSE(report.degraded_providers.empty());
    EXPECT_EQ(report.degraded_providers[0], lost.provider);

    EXPECT_EQ(analysis::tally_degradation(report).quarantined_shards, 1u);
    EXPECT_EQ(analysis::campaign_exit_code(report), 0);
    EXPECT_NE(analysis::render_degradation_appendix(report), "");
  }
}

TEST(QuarantineIntegration, OffProfileKeepsHardFailureSemantics) {
  const InjectedThrow inject("0:throw:always");
  for (const auto& backend : kBackends) {
    SCOPED_TRACE(backend.name);
    core::ParallelCampaign campaign(
        exhausted_shard_options(faults::FaultProfile::kOff, backend));
    const auto report = campaign.run(kSubset, 99);

    // Same exhaustion without a fault profile stays a hard failure: the
    // provider lands in failed_providers and the run exits non-zero.
    ASSERT_EQ(report.providers.size(), 2u);
    ASSERT_EQ(report.failed_providers.size(), 1u);
    EXPECT_EQ(report.failed_providers[0], report.providers[0].provider);
    EXPECT_TRUE(report.crash_quarantined_providers.empty());
    EXPECT_TRUE(report.degraded_providers.empty());
    for (const auto& provider : report.providers)
      EXPECT_FALSE(provider.quarantined) << provider.provider;
    EXPECT_FALSE(report.providers[1].vantage_points.empty());

    EXPECT_EQ(analysis::tally_degradation(report).quarantined_shards, 0u);
    EXPECT_EQ(analysis::campaign_exit_code(report), 1);
  }
}

TEST(QuarantineIntegration, FirstAttemptThrowIsRetriedToTheSameBytes) {
  std::string clean;
  {
    core::ParallelCampaign campaign(exhausted_shard_options(
        faults::FaultProfile::kOff, kBackends[0]));
    clean = analysis::serialize_campaign_payload(campaign.run(kSubset, 99));
  }
  const InjectedThrow inject("0:throw");  // attempt 1 only
  for (const auto& backend : kBackends) {
    SCOPED_TRACE(backend.name);
    core::ParallelCampaign campaign(
        exhausted_shard_options(faults::FaultProfile::kOff, backend));
    const auto report = campaign.run(kSubset, 99);
    EXPECT_TRUE(report.failed_providers.empty());
    EXPECT_EQ(analysis::serialize_campaign_payload(report), clean);
    // One retry on the books, counted once whichever backend ran it.
    EXPECT_EQ(report.retries, 1u);
  }
}

}  // namespace
}  // namespace vpna
