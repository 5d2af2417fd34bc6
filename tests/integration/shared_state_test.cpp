// The state a process builds once and every shard reads: the seed-free
// world base and the ground truth. The ground truth is pinned — it is not
// part of the artifact cache key, so a site or page change that moves it
// must bump store::kCodeEpoch — and it must not depend on the seed, the
// world it was collected in, or the process. Neither may change while a
// campaign's shards read them at once.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/groundtruth.h"
#include "core/parallel_campaign.h"
#include "ecosystem/testbed.h"
#include "inet/world_base.h"
#include "util/strings.h"
#include "util/subprocess.h"

namespace vpna::core {
namespace {

// GroundTruth::fingerprint() of what each of the 62 paper shards collected
// in its own world when every shard still collected one (faults off): the
// same value in all 62.
constexpr std::uint64_t kGroundTruthPin = 0x96813666455b4aeeULL;

std::string hex(std::uint64_t v) {
  return util::format("%016llx", static_cast<unsigned long long>(v));
}

std::uint64_t collected_in(ecosystem::Testbed tb) {
  return collect_ground_truth(*tb.world, *tb.client).fingerprint();
}

// Declared first: ctest runs each test in its own process, so the child
// collects the shared ground truth from scratch, not from a parent's copy.
TEST(GroundTruthPin, AFreshProcessCollectsThePinnedTruth) {
  auto child = util::Subprocess::fork_child([](int, int write_fd) {
    return util::write_all(write_fd,
                           hex(shared_ground_truth()->fingerprint()))
               ? 0
               : 1;
  });
  ASSERT_TRUE(child.wait().success());
  std::string reply;
  while (util::read_available(child.stdout_fd(), &reply)) {
  }
  EXPECT_EQ(reply, hex(kGroundTruthPin));
  EXPECT_EQ(hex(shared_ground_truth()->fingerprint()), hex(kGroundTruthPin));
}

TEST(GroundTruthPin, AnySeedAndAnyShardWorldCollectTheSameTruth) {
  EXPECT_EQ(hex(collected_in(ecosystem::build_testbed_subset({}, 7))),
            hex(kGroundTruthPin));
  EXPECT_EQ(hex(collected_in(ecosystem::build_testbed_subset(
                {"NordVPN", "Anonine"}, 424242))),
            hex(kGroundTruthPin));
  // A paper shard's own world, as every shard collected it before.
  EXPECT_EQ(hex(collected_in(
                ecosystem::build_provider_shard("HideMyAss", 20181031))),
            hex(kGroundTruthPin));
}

TEST(GroundTruthPin, TheSharedTruthCoversTheTestLists) {
  const auto truth = shared_ground_truth();
  ASSERT_NE(truth, nullptr);
  EXPECT_EQ(truth, shared_ground_truth());  // one instance per process
  EXPECT_GE(truth->doms.size(), 200u);
  EXPECT_GE(truth->cert_fingerprints.size(), 150u);
  EXPECT_NE(truth->dom(inet::honeysite_ads()), nullptr);
}

// Shards read both shared objects concurrently (the TSan lane runs this);
// `const` stops honest writes, this catches a mutable member or a
// copy-on-write site that forgot to copy.
TEST(FrozenSharedState, ACampaignLeavesTheBaseAndTheGroundTruthUnchanged) {
  const auto base = inet::WorldBase::shared();
  const auto truth = shared_ground_truth();
  const std::uint64_t base_before = base->fingerprint();
  const std::uint64_t truth_before = truth->fingerprint();

  CampaignOptions opts;
  opts.runner.vantage_points_per_provider = 3;
  opts.jobs = 4;
  ParallelCampaign campaign(opts);
  const auto report = campaign.run({}, 20181031);
  EXPECT_EQ(report.providers.size(), 62u);
  EXPECT_TRUE(report.failed_providers.empty());

  EXPECT_EQ(inet::WorldBase::shared(), base);
  EXPECT_EQ(shared_ground_truth(), truth);
  EXPECT_EQ(hex(base->fingerprint()), hex(base_before));
  EXPECT_EQ(hex(truth->fingerprint()), hex(truth_before));
}

}  // namespace
}  // namespace vpna::core
