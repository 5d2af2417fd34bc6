// Scheduling stress for the parallel campaign engine and its pool, sized
// to shake out races under `ctest -j` (and to run under TSan via
// -DVPNA_SANITIZE=thread). Labelled `slow`: excluded by `ctest -LE slow`.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/report_aggregation.h"
#include "core/parallel_campaign.h"
#include "util/task_pool.h"

namespace vpna {
namespace {

TEST(ParallelStress, ManySmallTasksAcrossManyWorkers) {
  // 20k near-empty tasks through 8 workers: any lost wakeup, double-pop or
  // dropped claim shows up as a hang, a wrong sum or a short task count.
  util::TaskPool pool(8);
  std::atomic<long> sum{0};
  std::vector<std::future<void>> futures;
  constexpr int kTasks = 20000;
  futures.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i)
    futures.push_back(pool.submit([&sum, i] { sum += i; }));
  for (auto& f : futures) f.get();
  pool.wait_idle();
  EXPECT_EQ(sum.load(), static_cast<long>(kTasks - 1) * kTasks / 2);
  EXPECT_EQ(util::sum_counters(pool.counters()).tasks_run,
            static_cast<std::uint64_t>(kTasks));
}

TEST(ParallelStress, SubmissionFromManyThreads) {
  // External submitters race the round-robin distribution path.
  util::TaskPool pool(4);
  std::atomic<long> sum{0};
  std::vector<std::thread> submitters;
  constexpr int kThreads = 8, kPerThread = 1000;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&pool, &sum] {
      for (int i = 0; i < kPerThread; ++i)
        pool.submit([&sum] { sum += 1; });
    });
  }
  for (auto& t : submitters) t.join();
  pool.wait_idle();
  EXPECT_EQ(sum.load(), static_cast<long>(kThreads) * kPerThread);
}

TEST(ParallelStress, ThrowChurnUnderContention) {
  // Throwing tasks interleaved with healthy ones: every exception lands in
  // its own future and the counters stay consistent under contention.
  util::TaskPool pool(6);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 600; ++i) {
    futures.push_back(pool.submit([i]() -> int {
      if (i % 3 == 0) throw std::runtime_error("flake");
      return i;
    }));
  }
  for (int i = 0; i < 600; ++i) {
    if (i % 3 == 0)
      EXPECT_THROW(futures[i].get(), std::runtime_error);
    else
      EXPECT_EQ(futures[i].get(), i);
  }
  pool.wait_idle();
  EXPECT_EQ(util::sum_counters(pool.counters()).tasks_run, 600u);
}

TEST(ParallelStress, CampaignPayloadStableAcrossJobCountsAndRepeats) {
  // The determinism contract under deliberately varied scheduling: repeat
  // the same campaign at several worker counts; every payload must match
  // the serial baseline byte for byte.
  const std::vector<std::string> names = {"NordVPN", "ExpressVPN", "Seed4.me",
                                          "Anonine", "Boxpn", "Freedome VPN",
                                          "TunnelBear", "IPVanish"};
  core::CampaignOptions opts;
  opts.runner.vantage_points_per_provider = 2;
  opts.jobs = 1;
  const auto serial = analysis::serialize_campaign_payload(
      core::ParallelCampaign(opts).run(names, 20181031));
  for (std::size_t jobs : {2u, 3u, 5u, 8u}) {
    opts.jobs = jobs;
    const auto payload = analysis::serialize_campaign_payload(
        core::ParallelCampaign(opts).run(names, 20181031));
    EXPECT_EQ(serial, payload) << "diverged at jobs=" << jobs;
  }
}

TEST(ParallelStress, ConcurrentCampaignsDoNotInterfere) {
  // Two whole campaigns racing each other from different threads — shard
  // worlds must be fully isolated (no hidden shared mutable state).
  const std::vector<std::string> names = {"NordVPN", "Seed4.me", "Anonine",
                                          "Boxpn"};
  core::CampaignOptions opts;
  opts.runner.vantage_points_per_provider = 2;
  opts.jobs = 1;
  const auto baseline = analysis::serialize_campaign_payload(
      core::ParallelCampaign(opts).run(names, 77));

  std::string got_a, got_b;
  std::thread a([&] {
    core::CampaignOptions o = opts;
    o.jobs = 4;
    got_a = analysis::serialize_campaign_payload(
        core::ParallelCampaign(o).run(names, 77));
  });
  std::thread b([&] {
    core::CampaignOptions o = opts;
    o.jobs = 4;
    got_b = analysis::serialize_campaign_payload(
        core::ParallelCampaign(o).run(names, 77));
  });
  a.join();
  b.join();
  EXPECT_EQ(baseline, got_a);
  EXPECT_EQ(baseline, got_b);
}

}  // namespace
}  // namespace vpna
