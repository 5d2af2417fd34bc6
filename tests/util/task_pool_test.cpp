// Work-stealing pool unit tests: result ordering, exception propagation,
// retry policy, counters, and a small smoke-stress case (the
// full many-small-tasks stress lives in the slow-labelled suite).
#include "util/task_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace vpna::util {
namespace {

TEST(TaskPool, RunsSubmittedTasksAndPreservesResultOrder) {
  TaskPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);

  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i)
    futures.push_back(pool.submit([i] { return i * i; }));
  // Futures map 1:1 to submissions, whatever order workers ran them in.
  for (int i = 0; i < 64; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

TEST(TaskPool, ZeroWorkersMeansHardwareConcurrency) {
  TaskPool pool(0);
  EXPECT_GE(pool.worker_count(), 1u);
  auto fut = pool.submit([] { return 7; });
  EXPECT_EQ(fut.get(), 7);
}

TEST(TaskPool, VoidTasksComplete) {
  TaskPool pool(2);
  std::atomic<int> ran{0};
  auto fut = pool.submit([&ran] { ++ran; });
  fut.get();
  EXPECT_EQ(ran.load(), 1);
}

TEST(TaskPool, ExceptionPropagatesThroughFuture) {
  TaskPool pool(2);
  auto fut = pool.submit(
      []() -> int { throw std::runtime_error("shard exploded"); });
  EXPECT_THROW(
      {
        try {
          fut.get();
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "shard exploded");
          throw;
        }
      },
      std::runtime_error);
}

TEST(TaskPool, RetriesUntilAttemptSucceeds) {
  TaskPool pool(2);
  auto failures = std::make_shared<std::atomic<int>>(0);
  TaskOptions opts;
  opts.max_attempts = 3;
  auto fut = pool.submit(
      [failures]() -> int {
        if (failures->fetch_add(1) < 2) throw std::runtime_error("flaky");
        return 42;
      },
      opts);
  EXPECT_EQ(fut.get(), 42);
  EXPECT_EQ(failures->load(), 3);
  pool.wait_idle();
  const auto total = pool.total_counters();
  EXPECT_EQ(total.tasks_run, 3u);  // attempts, retries included
  EXPECT_EQ(total.retries, 2u);
}

TEST(TaskPool, ExhaustedRetriesSurfaceTheLastException) {
  TaskPool pool(2);
  TaskOptions opts;
  opts.max_attempts = 3;
  auto attempts = std::make_shared<std::atomic<int>>(0);
  auto fut = pool.submit(
      [attempts]() -> int {
        attempts->fetch_add(1);
        throw std::runtime_error("always fails");
      },
      opts);
  EXPECT_THROW(fut.get(), std::runtime_error);
  EXPECT_EQ(attempts->load(), 3);
}

TEST(TaskPool, RunInlineAppliesTheRetryPolicyOnTheCallingThread) {
  WorkerCounters counters;
  TaskOptions opts;
  opts.max_attempts = 3;
  int calls = 0;
  int worker = 0;
  TaskPool::run_inline(
      [&] {
        worker = TaskPool::current_worker_index();
        if (++calls < 3) throw std::runtime_error("flaky");
      },
      opts, counters);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(worker, -1);  // no pool worker involved
  EXPECT_EQ(counters.tasks_run, 3u);
  EXPECT_EQ(counters.retries, 2u);

  // An exhausted task's last exception is dropped, never thrown at the
  // caller: outcomes travel through the task itself.
  calls = 0;
  EXPECT_NO_THROW(TaskPool::run_inline(
      [&] {
        ++calls;
        throw std::runtime_error("always fails");
      },
      opts, counters));
  EXPECT_EQ(calls, 3);
}

TEST(TaskPool, CountersAccountForEveryTask) {
  TaskPool pool(3);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 200; ++i)
    futures.push_back(pool.submit([i] { return i; }));
  long sum = 0;
  for (auto& f : futures) sum += f.get();
  EXPECT_EQ(sum, 199L * 200 / 2);
  pool.wait_idle();
  const auto per_worker = pool.counters();
  EXPECT_EQ(per_worker.size(), 3u);
  std::uint64_t tasks = 0;
  for (const auto& c : per_worker) tasks += c.tasks_run;
  EXPECT_EQ(tasks, 200u);
}

TEST(TaskPool, IdleWorkersStealFromLoadedQueues) {
  // One long task pins the worker that owns it; the backlog distributed
  // round-robin behind it must drain via stealing. With 2 workers, worker 0
  // blocked and 100 tasks queued, worker 1 has to steal roughly half.
  TaskPool pool(2);
  std::atomic<bool> release{false};
  auto blocker = pool.submit([&release] {
    while (!release.load()) std::this_thread::sleep_for(
        std::chrono::milliseconds(1));
  });
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i)
    futures.push_back(pool.submit([i] { return i; }));
  for (auto& f : futures) f.get();  // must finish while the blocker holds
  release.store(true);
  blocker.get();
  pool.wait_idle();
  EXPECT_GT(pool.total_counters().steals, 0u);
}

TEST(TaskPool, WaitIdleBlocksUntilEverythingFinished) {
  TaskPool pool(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i)
    pool.submit([&done] {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      ++done;
    });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 50);
}

// Snapshots counters from the main thread while workers are mid-flight.
// The contract (task_pool.h): every counter write happens under the owning
// worker's mutex, so a concurrent snapshot may lag but never tears — and
// this test is the TSan witness for that claim (VPNA_SANITIZE=thread).
TEST(TaskPool, ConcurrentCounterSnapshotsAreConsistent) {
  TaskPool pool(4);
  std::atomic<bool> running{true};
  std::vector<std::future<void>> futures;
  futures.reserve(500);
  for (int i = 0; i < 500; ++i)
    futures.push_back(pool.submit(
        [] { std::this_thread::sleep_for(std::chrono::microseconds(50)); }));

  std::uint64_t snapshots = 0;
  while (running.load()) {
    const auto per_worker = pool.counters();
    EXPECT_EQ(per_worker.size(), pool.worker_count());
    const auto total = pool.total_counters();
    // tasks_run only grows and never exceeds what was submitted (no
    // retries in this workload).
    EXPECT_LE(total.tasks_run, 500u);
    EXPECT_GE(total.busy_wall_s, 0.0);
    ++snapshots;
    if (std::all_of(futures.begin(), futures.end(), [](auto& f) {
          return f.wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready;
        }))
      running = false;
  }
  pool.wait_idle();
  EXPECT_GT(snapshots, 0u);
  EXPECT_EQ(pool.total_counters().tasks_run, 500u);
}

TEST(TaskPool, SmokeStressManySmallTasks) {
  TaskPool pool(4);
  std::atomic<long> sum{0};
  std::vector<std::future<void>> futures;
  futures.reserve(2000);
  for (int i = 0; i < 2000; ++i)
    futures.push_back(pool.submit([&sum, i] { sum += i; }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 1999L * 2000 / 2);
  pool.wait_idle();
  EXPECT_EQ(pool.total_counters().tasks_run, 2000u);
}

}  // namespace
}  // namespace vpna::util
