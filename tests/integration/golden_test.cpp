// Golden oracle: the campaign and census payload fingerprints at the paper
// seed, pinned per code epoch. Every execution mode of the shard executor
// (one pooled worker, four pooled workers, supervised worker processes) and
// the flaky fault profile must land on the same bytes. The speed-test
// payload and one traced shard's Chrome-trace and canonical metrics exports
// are pinned too, so instrumentation changes cannot move a trace byte
// unnoticed, and so are the scorecard.md and campaign.csv files full_campaign
// writes, rendered through the same analysis::render_paper_artefacts. A
// mismatch under an unchanged kCodeEpoch is a silent payload change: either
// a bug, or a deliberate change that must bump kCodeEpoch and add a
// re-pinned row.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "analysis/report_aggregation.h"
#include "analysis/report_writer.h"
#include "core/parallel_campaign.h"
#include "ecosystem/scale.h"
#include "faults/profile.h"
#include "obs/export.h"
#include "store/code_epoch.h"
#include "util/rng.h"
#include "util/strings.h"

namespace vpna {
namespace {

constexpr std::uint64_t kSeed = 20181031;

struct GoldenPins {
  std::uint32_t code_epoch;
  std::uint64_t campaign_payload;  // 62 providers x 3 vantage points
  std::uint64_t census_payload;    // 1024-provider scaled census
  std::uint64_t census_catalog;
  std::uint64_t speedtest_payload;  // --speedtest, speedtest.csv included
  std::uint64_t trace_chrome;       // one traced shard (kTracedProvider)
  std::uint64_t trace_metrics;      // its canonical metrics text
  std::uint64_t scorecard_md;       // the default run's scorecard.md
  std::uint64_t campaign_csv;       // and campaign.csv (both from epoch 3)
};

constexpr GoldenPins kPins[] = {
    {1, 0xb18430c525c24657ULL, 0x1cf6b988474a247fULL, 0x19b44b1041db4ce3ULL,
     0xe0c02b2419058d44ULL, 0x3e94b5ce50f4b79fULL, 0x8469ef0c9b7c6b7bULL, 0,
     0},
    // One ground truth per process and the browser host cache: the payload
    // holds; the traced shard no longer records its own ground-truth
    // collection, and its page loads make fewer DNS queries.
    {2, 0xb18430c525c24657ULL, 0x1cf6b988474a247fULL, 0x19b44b1041db4ce3ULL,
     0xe0c02b2419058d44ULL, 0x70eff9a50c7ec3beULL, 0x1e35788d0c1bb84fULL, 0,
     0},
    // Degradation::faults_seen counts each injected fault once (it counted
    // the `faults.injected` total and the per-kind counter before). No
    // pinned run degrades a vantage point, so every value holds; the bump
    // orphans cached shards that hold a doubled count.
    // The scorecard.md and campaign.csv pins were added at this epoch; the
    // rows above predate them (0 = not pinned).
    {3, 0xb18430c525c24657ULL, 0x1cf6b988474a247fULL, 0x19b44b1041db4ce3ULL,
     0xe0c02b2419058d44ULL, 0x70eff9a50c7ec3beULL, 0x1e35788d0c1bb84fULL,
     0x727256ac8c6f0e9bULL, 0xba747d19cea3c41bULL},
    // One jitter draw per delivered exchange, from the network's own
    // "jitter" stream: a delivered exchange's reported RTT is now the sim
    // time that passed, and the jitter values differ. Cached shard reports
    // hold RTT-derived fields, so the bump orphans them. Every payload and
    // file pin holds; the traced shard's sim timestamps and RTT histograms
    // move, so its Chrome-trace and metrics pins are re-pinned.
    {4, 0xb18430c525c24657ULL, 0x1cf6b988474a247fULL, 0x19b44b1041db4ce3ULL,
     0xe0c02b2419058d44ULL, 0xcf7d94442f92fd20ULL, 0x25e43763171dc745ULL,
     0x727256ac8c6f0e9bULL, 0xba747d19cea3c41bULL},
};

constexpr const char* kTracedProvider = "NordVPN";

const GoldenPins* pins_for_current_epoch() {
  for (const auto& p : kPins)
    if (p.code_epoch == store::kCodeEpoch) return &p;
  return nullptr;
}

std::string hex(std::uint64_t v) {
  return util::format("%016llx", static_cast<unsigned long long>(v));
}

void expect_pinned(std::uint64_t actual, std::uint64_t pinned,
                   const std::string& what) {
  EXPECT_EQ(hex(actual), hex(pinned))
      << what << " changed at code epoch " << store::kCodeEpoch
      << ": bump kCodeEpoch and re-pin";
}

core::CampaignOptions paper_options(std::size_t jobs, bool isolate,
                                    faults::FaultProfile profile) {
  core::CampaignOptions opts;
  opts.runner.vantage_points_per_provider = 3;
  opts.runner.fault_profile = profile;
  opts.jobs = jobs;
  opts.isolate = isolate;
  return opts;
}

// The default run's files and payload, rendered once as full_campaign does.
analysis::PaperArtefacts campaign_artefacts(const core::CampaignOptions& opts) {
  core::ParallelCampaign campaign(opts);
  const auto report = campaign.run({}, kSeed);
  EXPECT_EQ(report.providers.size(), 62u);
  EXPECT_TRUE(report.failed_providers.empty());
  EXPECT_TRUE(report.crash_quarantined_providers.empty());
  auto artefacts = analysis::render_paper_artefacts(report);
  EXPECT_EQ(artefacts.payload, analysis::serialize_campaign_payload(report));
  return artefacts;
}

class GoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pins_ = pins_for_current_epoch();
    ASSERT_NE(pins_, nullptr) << "no golden pins for code epoch "
                              << store::kCodeEpoch << ": add a row to kPins";
  }
  void expect_pinned_files(const analysis::PaperArtefacts& artefacts,
                           const std::string& at) const {
    expect_pinned(util::fnv1a(artefacts.payload), pins_->campaign_payload,
                  "campaign payload" + at);
    expect_pinned(util::fnv1a(artefacts.scorecard_md), pins_->scorecard_md,
                  "scorecard.md" + at);
    expect_pinned(util::fnv1a(artefacts.campaign_csv), pins_->campaign_csv,
                  "campaign.csv" + at);
  }
  const GoldenPins* pins_ = nullptr;
};

TEST_F(GoldenTest, PaperCampaignIsPinnedInEveryExecutionMode) {
  struct Mode {
    const char* name;
    std::size_t jobs;
    bool isolate;
  };
  for (const Mode& m : {Mode{"jobs 1", 1, false}, Mode{"jobs 4", 4, false},
                        Mode{"isolated 2", 2, true}})
    expect_pinned_files(campaign_artefacts(paper_options(
                            m.jobs, m.isolate, faults::FaultProfile::kOff)),
                        std::string(" at ") + m.name);
}

TEST_F(GoldenTest, FlakyProfileLandsOnThePinnedPayload) {
  expect_pinned_files(campaign_artefacts(paper_options(
                          4, false, faults::FaultProfile::kFlaky)),
                      " under the flaky profile");
}

TEST_F(GoldenTest, SpeedTestPayloadIsPinned) {
  auto opts = paper_options(4, false, faults::FaultProfile::kOff);
  opts.runner.speed_test = true;
  core::ParallelCampaign campaign(opts);
  const auto report = campaign.run({}, kSeed);
  EXPECT_TRUE(report.failed_providers.empty());
  ASSERT_FALSE(analysis::render_speedtest_csv(report.providers).empty());
  expect_pinned(util::fnv1a(analysis::serialize_campaign_payload(report)),
                pins_->speedtest_payload, "speed-test campaign payload");
}

TEST_F(GoldenTest, TracedShardExportsArePinned) {
  for (const std::size_t jobs : {1u, 4u}) {
    auto opts = paper_options(jobs, false, faults::FaultProfile::kOff);
    opts.trace.enabled = true;
    core::ParallelCampaign campaign(opts);
    const auto report = campaign.run({kTracedProvider}, kSeed);
    ASSERT_EQ(report.traces.size(), 1u);
    const std::string at = " at jobs " + std::to_string(jobs);
    expect_pinned(util::fnv1a(obs::chrome_trace_json(report.traces)),
                  pins_->trace_chrome, "traced shard Chrome trace" + at);
    expect_pinned(util::fnv1a(analysis::campaign_metrics(report).render_text(
                      /*include_volatile=*/false)),
                  pins_->trace_metrics, "traced shard canonical metrics" + at);
  }
}

TEST_F(GoldenTest, ScaledCensusIsPinned) {
  const auto catalog = ecosystem::generate_scaled_catalog(1024, 1000, kSeed);
  expect_pinned(catalog.fingerprint(), pins_->census_catalog,
                "census catalog fingerprint");
  core::ScaledCampaignOptions opts;
  opts.seed = kSeed;
  opts.jobs = 4;
  const auto report = core::run_scaled_campaign(catalog, opts);
  EXPECT_TRUE(report.crashed_providers.empty());
  expect_pinned(report.payload_fingerprint, pins_->census_payload,
                "census payload");
}

}  // namespace
}  // namespace vpna
