// Process-isolated campaign execution end to end: byte-identity with the
// in-process engine, crash containment (exit/segv/hang workers retried on
// fresh processes, then quarantined), journal-based resume after a
// supervisor kill, interrupt semantics, and the scaled-census isolate
// path. Everything runs forked supervised workers on a cheap
// six-provider subset, with deterministic crash injection via
// VPNA_CRASH_SHARD / VPNA_CRASH_SUPERVISOR.
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "analysis/report_aggregation.h"
#include "core/parallel_campaign.h"
#include "ecosystem/scale.h"
#include "store/journal.h"
#include "util/subprocess.h"

namespace vpna {
namespace {

const std::vector<std::string> kSubset = {
    "NordVPN", "ExpressVPN", "Seed4.me", "Anonine", "Boxpn", "Freedome VPN"};

// Scoped setenv: crash directives must never leak into a later test (or a
// sibling process) after an ASSERT bails out mid-body.
class EnvGuard {
 public:
  EnvGuard(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~EnvGuard() { ::unsetenv(name_); }

 private:
  const char* name_;
};

core::CampaignOptions subset_options(std::size_t jobs, bool isolate) {
  core::CampaignOptions opts;
  opts.runner.vantage_points_per_provider = 2;
  opts.jobs = jobs;
  opts.isolate = isolate;
  return opts;
}

// The in-process golden payload, computed once — every isolate scenario
// below must reproduce these exact bytes.
const std::string& golden_payload() {
  static const std::string payload = [] {
    core::ParallelCampaign campaign(subset_options(2, false));
    return analysis::serialize_campaign_payload(campaign.run(kSubset));
  }();
  return payload;
}

std::filesystem::path fresh_dir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("vpna_isolate_" + std::to_string(::getpid()) + "_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(IsolateCampaign, PayloadMatchesInProcessAtAnyWorkerCount) {
  for (std::size_t jobs : {1u, 2u}) {
    core::ParallelCampaign campaign(subset_options(jobs, true));
    const auto report = campaign.run(kSubset);
    EXPECT_TRUE(report.execution_isolated);
    EXPECT_FALSE(report.interrupted);
    EXPECT_TRUE(report.failed_providers.empty());
    EXPECT_TRUE(report.crash_quarantined_providers.empty());
    EXPECT_GE(report.process_spawns, 1u);
    EXPECT_EQ(analysis::serialize_campaign_payload(report), golden_payload())
        << "isolated payload diverged at jobs=" << jobs;
  }
}

TEST(IsolateCampaign, CrashedWorkerIsRetriedOnAFreshProcess) {
  // Shard 1 _exits(41) on its first attempt only: the supervisor charges
  // the attempt, respawns, and the retry succeeds — byte-identical result,
  // exit code 0, one crash on the books.
  EnvGuard crash("VPNA_CRASH_SHARD", "1:exit");
  core::ParallelCampaign campaign(subset_options(2, true));
  const auto report = campaign.run(kSubset);
  EXPECT_TRUE(report.crash_quarantined_providers.empty());
  EXPECT_GE(report.process_crashes, 1u);
  EXPECT_EQ(analysis::serialize_campaign_payload(report), golden_payload());
  EXPECT_EQ(analysis::campaign_exit_code(report), 0);
}

TEST(IsolateCampaign, SegfaultingEveryAttemptQuarantinesJustThatShard) {
  EnvGuard crash("VPNA_CRASH_SHARD", "0:segv:always");
  auto opts = subset_options(2, true);
  opts.shard_attempts = 2;
  core::ParallelCampaign campaign(opts);
  const auto report = campaign.run(kSubset);
  ASSERT_EQ(report.crash_quarantined_providers.size(), 1u);
  ASSERT_EQ(report.providers.size(), kSubset.size());
  // Canonical order held: the quarantined shard keeps its placeholder slot
  // while the other five merged their real reports.
  EXPECT_EQ(report.crash_quarantined_providers[0],
            report.providers[0].provider);
  EXPECT_GE(report.process_crashes, 2u);  // initial attempt + retry
  EXPECT_TRUE(report.failed_providers.empty());
  EXPECT_EQ(analysis::campaign_exit_code(report), 3);
}

TEST(IsolateCampaign, HangingWorkerIsEscalatedAndQuarantined) {
  // The median-multiple watchdog is the one hang budget: once the healthy
  // shards set a median, the hung worker is flagged, sent SIGTERM (which
  // it cannot ignore — forked workers run with the default disposition)
  // and its shard quarantined. The budget is relative to this build's own
  // shard walls, so sanitizer builds need no separate sizing. The multiple
  // leaves a healthy shard wide headroom over the median.
  EnvGuard crash("VPNA_CRASH_SHARD", "2:hang:always");
  auto opts = subset_options(2, true);
  opts.status.watchdog_multiple = 10.0;
  opts.shard_attempts = 1;
  core::ParallelCampaign campaign(opts);
  const auto report = campaign.run(kSubset);
  ASSERT_EQ(report.crash_quarantined_providers.size(), 1u);
  EXPECT_EQ(report.crash_quarantined_providers[0],
            report.providers[2].provider);
  EXPECT_GE(report.process_kills, 1u);
  const bool alerted = std::any_of(
      report.watchdog_alerts.begin(), report.watchdog_alerts.end(),
      [&](const obs::WatchdogAlert& a) {
        return a.shard == report.providers[2].provider;
      });
  EXPECT_TRUE(alerted);
  // The other five shards still produced their canonical bytes.
  std::size_t healthy = 0;
  for (const auto& p : report.providers)
    healthy += p.vantage_points.empty() ? 0 : 1;
  EXPECT_EQ(healthy, kSubset.size() - 1);
}

TEST(IsolateCampaign, IsolateRefusesTracedRuns) {
  auto opts = subset_options(2, true);
  opts.trace.enabled = true;
  core::ParallelCampaign campaign(opts);
  EXPECT_THROW((void)campaign.run(kSubset), std::invalid_argument);
}

TEST(IsolateCampaign, InterruptFlagStopsTheRunWithExitCode130) {
  static volatile std::sig_atomic_t interrupted = 1;  // pre-raised
  auto opts = subset_options(2, true);
  opts.interrupt = &interrupted;
  core::ParallelCampaign campaign(opts);
  const auto report = campaign.run(kSubset);
  EXPECT_TRUE(report.interrupted);
  EXPECT_EQ(analysis::campaign_exit_code(report), 130);
}

TEST(IsolateCampaign, ResumeAfterSupervisorKillIsByteIdentical) {
  const auto dir = fresh_dir("resume");
  store::CacheConfig cache;
  cache.dir = (dir / "cache").string();
  cache.mode = store::CacheMode::kReadWrite;
  const std::string journal = (dir / "campaign.journal").string();

  // Run 1 in a sacrificial child process: the supervisor self-SIGKILLs
  // right after the third terminal outcome hits the journal — the scripted
  // stand-in for a host crash mid-campaign.
  auto victim = util::Subprocess::fork_child([cache, journal](int, int) {
    ::setenv("VPNA_CRASH_SUPERVISOR", "3:kill", 1);
    auto opts = subset_options(2, true);
    opts.cache = cache;
    opts.journal_path = journal;
    core::ParallelCampaign campaign(opts);
    (void)campaign.run(kSubset);
    return 0;  // unreachable: the supervisor dies first
  });
  const auto status = victim.wait();
  ASSERT_TRUE(status.signaled);
  ASSERT_EQ(status.signal, SIGKILL);

  // The journal survived the kill with exactly the durable outcomes.
  store::JournalHeader header;
  std::vector<store::JournalEntry> entries;
  ASSERT_TRUE(store::CampaignJournal::load(journal, &header, &entries));
  EXPECT_EQ(entries.size(), 3u);
  for (const auto& e : entries) EXPECT_EQ(e.outcome, "done");

  // Run 2 resumes: journaled shards replay from the artifact store, the
  // rest recompute, and the payload is byte-identical to an uninterrupted
  // run.
  auto opts = subset_options(2, true);
  opts.cache = cache;
  opts.journal_path = journal;
  opts.resume = true;
  core::ParallelCampaign campaign(opts);
  const auto report = campaign.run(kSubset);
  EXPECT_EQ(report.resumed_shards, 3u);
  EXPECT_TRUE(report.crash_quarantined_providers.empty());
  EXPECT_EQ(analysis::serialize_campaign_payload(report), golden_payload());
  std::filesystem::remove_all(dir);
}

TEST(IsolateCampaign, ResumeRefusesAJournalFromAnotherCampaign) {
  const auto dir = fresh_dir("mismatch");
  store::CacheConfig cache;
  cache.dir = (dir / "cache").string();
  cache.mode = store::CacheMode::kReadWrite;

  auto opts = subset_options(1, true);
  opts.cache = cache;
  opts.journal_path = (dir / "campaign.journal").string();
  {
    core::ParallelCampaign first(opts);
    (void)first.run(kSubset, /*seed=*/7);
  }
  opts.resume = true;
  core::ParallelCampaign second(opts);
  // Different seed → different campaign fingerprint → refusal, because the
  // journaled outcomes describe a different computation.
  EXPECT_THROW((void)second.run(kSubset, /*seed=*/8), std::runtime_error);
  std::filesystem::remove_all(dir);
}

TEST(IsolateCampaign, ScaledCensusIsolationIsByteIdentical) {
  const auto catalog = ecosystem::generate_scaled_catalog(12, 50, 20181031);
  core::ScaledCampaignOptions inproc;
  inproc.jobs = 2;
  const auto golden = core::run_scaled_campaign(catalog, inproc);

  core::ScaledCampaignOptions isolated = inproc;
  isolated.isolate = true;
  const auto report = core::run_scaled_campaign(catalog, isolated);
  EXPECT_TRUE(report.execution_isolated);
  EXPECT_TRUE(report.crashed_providers.empty());
  EXPECT_EQ(report.payload, golden.payload);
  EXPECT_EQ(report.payload_fingerprint, golden.payload_fingerprint);
}

TEST(IsolateCampaign, ScaledCensusCrashKeepsAZeroedRecordAndCompletes) {
  const auto catalog = ecosystem::generate_scaled_catalog(12, 50, 20181031);
  EnvGuard crash("VPNA_CRASH_SHARD", "4:segv:always");
  core::ScaledCampaignOptions opts;
  opts.jobs = 2;
  opts.isolate = true;
  opts.shard_attempts = 1;
  const auto report = core::run_scaled_campaign(catalog, opts);
  ASSERT_EQ(report.crashed_providers.size(), 1u);
  ASSERT_EQ(report.shards.size(), 12u);
  const auto& zeroed = report.shards[4];
  EXPECT_EQ(zeroed.provider, report.crashed_providers[0]);
  EXPECT_EQ(zeroed.vantage_points, 0u);   // census lost with the worker
  EXPECT_GT(zeroed.modeled_subscribers, 0u);  // catalog facts preserved
  // Every other shard censused normally — the campaign completed.
  for (std::size_t i = 0; i < report.shards.size(); ++i) {
    if (i != 4) {
      EXPECT_GT(report.shards[i].vantage_points, 0u);
    }
  }
}

}  // namespace
}  // namespace vpna
