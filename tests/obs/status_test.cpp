// StatusBoard tests, driven by an injected fake clock so the progress,
// ETA, and watchdog math is exact and the "artificially stalled shard"
// scenario is deterministic. Also covers the status-file JSON rendering,
// the atomic file rewrite, the pool-counter → status-stream surface, and
// the shared StatusBoard::tick() that both campaign backends run.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "obs/status.h"
#include "util/task_pool.h"

namespace vpna::obs {
namespace {

// Shared mutable fake time; the board holds a copy of the lambda, so the
// test advances through the shared_ptr.
struct FakeClock {
  std::shared_ptr<double> t = std::make_shared<double>(0.0);
  [[nodiscard]] std::function<double()> fn() const {
    auto p = t;
    return [p] { return *p; };
  }
  void advance(double s) { *t += s; }
};

std::vector<std::string> shard_names(std::size_t n) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < n; ++i)
    names.push_back("provider-" + std::to_string(i));
  return names;
}

TEST(StatusBoard, ProgressCountsAndPercent) {
  FakeClock clock;
  StatusBoard board(clock.fn());
  const auto names = shard_names(4);
  board.begin(names, 2);

  board.shard_started(0, 0);
  board.shard_started(1, 1);
  clock.advance(1.0);
  board.shard_finished(0, StatusBoard::Outcome::kDone);
  board.shard_finished(1, StatusBoard::Outcome::kQuarantined);
  board.shard_started(2, 0);

  const auto snap = board.snapshot();
  EXPECT_EQ(snap.total, 4u);
  EXPECT_EQ(snap.done, 1u);
  EXPECT_EQ(snap.quarantined, 1u);
  EXPECT_EQ(snap.failed, 0u);
  EXPECT_EQ(snap.completed, 2u);
  EXPECT_EQ(snap.running, 1u);
  EXPECT_DOUBLE_EQ(snap.percent, 50.0);
  EXPECT_DOUBLE_EQ(snap.elapsed_s, 1.0);
  EXPECT_EQ(snap.jobs, 2u);
  ASSERT_EQ(snap.in_flight.size(), 1u);
  EXPECT_EQ(snap.in_flight[0].shard, "provider-2");
  EXPECT_EQ(snap.in_flight[0].worker, 0);
}

TEST(StatusBoard, MedianAndEtaFromCompletedShards) {
  FakeClock clock;
  StatusBoard board(clock.fn());
  const auto names = shard_names(5);
  board.begin(names, 2);

  // Three completed shards with walls 1s, 2s, 3s → median 2s.
  for (std::size_t i = 0; i < 3; ++i) {
    board.shard_started(i, 0);
    clock.advance(static_cast<double>(i + 1));
    board.shard_finished(i, StatusBoard::Outcome::kDone);
  }
  const auto snap = board.snapshot();
  EXPECT_DOUBLE_EQ(snap.median_shard_s, 2.0);
  // 2 remaining shards × 2s median ÷ 2 lanes = 2s.
  EXPECT_DOUBLE_EQ(snap.eta_s, 2.0);
}

TEST(StatusBoard, EvenCountMedianAveragesTheMiddlePair) {
  FakeClock clock;
  StatusBoard board(clock.fn());
  const auto names = shard_names(4);
  board.begin(names, 1);
  const double walls[] = {4.0, 1.0, 3.0, 2.0};  // unsorted on purpose
  for (std::size_t i = 0; i < 4; ++i) {
    board.shard_started(i, 0);
    clock.advance(walls[i]);
    board.shard_finished(i, StatusBoard::Outcome::kDone);
  }
  // Sorted walls {1,2,3,4} → (2+3)/2.
  EXPECT_DOUBLE_EQ(board.snapshot().median_shard_s, 2.5);
}

TEST(StatusBoard, NoEtaBeforeAnyCompletion) {
  FakeClock clock;
  StatusBoard board(clock.fn());
  const auto names = shard_names(3);
  board.begin(names, 1);
  board.shard_started(0, 0);
  clock.advance(5.0);
  const auto snap = board.snapshot();
  EXPECT_DOUBLE_EQ(snap.median_shard_s, 0.0);
  EXPECT_LT(snap.eta_s, 0.0);  // negative = unknown
}

TEST(StatusBoard, WatchdogCatchesArtificiallyStalledShard) {
  FakeClock clock;
  StatusBoard board(clock.fn());
  const auto names = shard_names(5);
  board.begin(names, 2);

  // Shard 4 starts first and then stalls while 1s-median shards complete
  // around it.
  board.shard_started(4, 1);
  for (std::size_t i = 0; i < 3; ++i) {
    board.shard_started(i, 0);
    clock.advance(1.0);
    board.shard_finished(i, StatusBoard::Outcome::kDone);
  }
  // 3 completed, median 1s; the stalled shard has been running 3s — below
  // a 4x threshold, so no alert yet.
  EXPECT_TRUE(board.watchdog_scan(4.0).empty());

  clock.advance(2.0);  // now 5s elapsed > 4 × 1s median
  const auto fresh = board.watchdog_scan(4.0);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].shard, "provider-4");
  EXPECT_EQ(fresh[0].worker, 1);
  EXPECT_DOUBLE_EQ(fresh[0].elapsed_s, 5.0);
  EXPECT_DOUBLE_EQ(fresh[0].median_s, 1.0);
  EXPECT_DOUBLE_EQ(fresh[0].ratio(), 5.0);

  // One alert per attempt: rescanning later raises nothing new, but the
  // record stays on the board.
  clock.advance(10.0);
  EXPECT_TRUE(board.watchdog_scan(4.0).empty());
  EXPECT_EQ(board.alerts().size(), 1u);

  // A fresh attempt (pool retry) resets the shard's watchdog budget.
  board.shard_started(4, 0);
  clock.advance(50.0);
  EXPECT_EQ(board.watchdog_scan(4.0).size(), 1u);
  EXPECT_EQ(board.alerts().size(), 2u);
}

TEST(StatusBoard, WatchdogWaitsForMinCompleted) {
  FakeClock clock;
  StatusBoard board(clock.fn());
  const auto names = shard_names(3);
  board.begin(names, 1);
  board.shard_started(2, 0);
  board.shard_started(0, 0);
  clock.advance(0.1);
  board.shard_finished(0, StatusBoard::Outcome::kDone);
  clock.advance(100.0);
  // Only 1 completed shard: below kWatchdogMinCompleted (3), the median is not yet
  // trusted and nothing is flagged no matter how stalled.
  EXPECT_TRUE(board.watchdog_scan(4.0).empty());
  EXPECT_TRUE(board.alerts().empty());
}

TEST(StatusBoard, FailedAttemptNeverPollutesTheMedian) {
  FakeClock clock;
  StatusBoard board(clock.fn());
  const auto names = shard_names(2);
  board.begin(names, 1);

  board.shard_started(0, 0);
  clock.advance(50.0);  // a long, doomed attempt
  board.shard_attempt_failed(0);
  auto snap = board.snapshot();
  EXPECT_EQ(snap.running, 0u);
  EXPECT_DOUBLE_EQ(snap.median_shard_s, 0.0);

  // Quarantined/failed outcomes do not feed the median either.
  board.shard_started(1, 0);
  clock.advance(30.0);
  board.shard_finished(1, StatusBoard::Outcome::kQuarantined);
  EXPECT_DOUBLE_EQ(board.snapshot().median_shard_s, 0.0);
}

TEST(StatusBoard, RenderStatusJsonCarriesAllSections) {
  FakeClock clock;
  StatusBoard board(clock.fn());
  const auto names = shard_names(2);
  board.begin(names, 2);
  board.shard_started(0, 1);
  clock.advance(0.5);

  std::vector<util::WorkerCounters> workers(2);
  workers[1].tasks_run = 7;
  workers[1].steals = 2;
  board.set_workers(std::move(workers));

  const auto json = render_status_json(board.snapshot());
  EXPECT_NE(json.find("\"total\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"running\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"percent\": 0.0"), std::string::npos);
  EXPECT_NE(json.find("\"eta_s\": -1.000"), std::string::npos);
  EXPECT_NE(json.find("\"shard\": \"provider-0\""), std::string::npos);
  EXPECT_NE(json.find("\"watchdog\": []"), std::string::npos);
  EXPECT_NE(json.find("\"tasks_run\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"steals\": 2"), std::string::npos);
  // Retries are a shard count (the run manifest's), not a worker column.
  EXPECT_EQ(json.find("\"retries\""), std::string::npos);
}

TEST(WriteFileAtomic, WritesThenReplacesWithoutLeavingTemp) {
  const auto dir = std::filesystem::temp_directory_path() / "vpna_status_test";
  std::filesystem::create_directories(dir);
  const auto path = (dir / "status.json").string();

  ASSERT_TRUE(write_file_atomic(path, "first\n"));
  ASSERT_TRUE(write_file_atomic(path, "second\n"));

  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), "second\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove_all(dir);
}

TEST(WriteFileAtomic, FailsCleanlyOnUnwritablePath) {
  EXPECT_FALSE(write_file_atomic("/nonexistent-dir/status.json", "x"));
}

// Isolate-mode telemetry: per-worker-process rows pushed by the shard
// supervisor surface in the status JSON, and StatusBoard::tick() — the
// one tick both backends run — returns the alerts its scan raised (the
// supervisor escalates exactly those) and writes them into the status
// file.
TEST(StatusStream, ProcessRowsAndTickedAlertsSurfaceInStatusFile) {
  FakeClock clock;
  StatusBoard board(clock.fn());
  const std::vector<std::string> names = {"shard-a", "shard-b", "shard-c",
                                          "shard-d"};
  board.begin(names, 2);
  for (std::size_t i = 0; i < 3; ++i) {
    board.shard_started(i, 0);
    clock.advance(3.0);
    board.shard_finished(i, StatusBoard::Outcome::kDone);
  }
  board.shard_started(3, 1);
  clock.advance(9.5);

  ProcessStatus p;
  p.slot = 1;
  p.pid = 4242;
  p.alive = true;
  p.spawns = 3;
  p.shards_done = 7;
  p.crashes = 2;
  p.shard = "shard-d";
  board.set_processes({p});

  const auto dir = std::filesystem::temp_directory_path() /
                   ("vpna_status_board_tick_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  StatusOptions opts;
  opts.file = (dir / "status.json").string();
  opts.watchdog_multiple = 3.0;
  const auto fresh = board.tick(opts);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].shard, "shard-d");
  EXPECT_EQ(fresh[0].worker, 1);
  EXPECT_DOUBLE_EQ(fresh[0].median_s, 3.0);
  EXPECT_TRUE(board.tick(opts).empty());  // once per attempt

  const auto snapshot = board.snapshot();
  ASSERT_EQ(snapshot.processes.size(), 1u);
  EXPECT_EQ(snapshot.processes[0].pid, 4242);
  ASSERT_EQ(snapshot.alerts.size(), 1u);

  std::ifstream in(opts.file);
  std::stringstream content;
  content << in.rdbuf();
  const std::string json = content.str();
  std::filesystem::remove_all(dir);
  EXPECT_NE(json.find("\"median_s\": 3.000, \"ratio\": 3.17"),
            std::string::npos);
  EXPECT_NE(json.find("\"processes\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 4242"), std::string::npos);
  EXPECT_NE(json.find("\"spawns\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"crashes\": 2, \"shard\": \"shard-d\""),
            std::string::npos);
}

TEST(StatusStream, CurrentWorkerIndexIsMinusOneOffPool) {
  EXPECT_EQ(util::TaskPool::current_worker_index(), -1);
  util::TaskPool pool(2);
  auto fut = pool.submit([] { return util::TaskPool::current_worker_index(); });
  const int index = fut.get();
  EXPECT_GE(index, 0);
  EXPECT_LT(index, 2);
}

}  // namespace
}  // namespace vpna::obs
