// Work-stealing thread pool for embarrassingly parallel campaign work.
//
// Each worker owns a deque; submissions are distributed round-robin and an
// idle worker steals from the back of a victim's deque. Every worker keeps
// lightweight counters (tasks run, steals, busy wall/cpu time) that
// campaign reports surface. A task runs once: retrying is the caller's
// policy (the shard executor loops its own attempts, see DESIGN.md §7).
//
// The pool schedules work; it never makes results depend on scheduling. Any
// task set whose tasks are independent and individually deterministic yields
// the same results at any worker count — that contract is what the parallel
// campaign engine builds on (see DESIGN.md §7).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

namespace vpna::util {

// Counters one worker accumulates over its lifetime. Snapshot via
// TaskPool::counters(); totals via sum_counters().
struct WorkerCounters {
  std::uint64_t tasks_run = 0;  // tasks run to completion or exception
  std::uint64_t steals = 0;     // tasks taken from another worker's deque
  double busy_wall_s = 0.0;     // wall time spent inside task bodies
  double busy_cpu_s = 0.0;      // thread cpu time spent inside task bodies
};

// Field-wise sum of a set of worker counters: the pool's totals, and what
// every report view (manifest, metrics, console) prints of a run's pool.
[[nodiscard]] WorkerCounters sum_counters(
    const std::vector<WorkerCounters>& counters) noexcept;

class TaskPool {
 public:
  // workers == 0 picks std::thread::hardware_concurrency() (min 1).
  explicit TaskPool(std::size_t workers = 0);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  // Index of the pool worker running the calling thread, or -1 when the
  // caller is not a pool worker (e.g. a task run by run_inline). Lets a
  // task attribute status heartbeats to its worker without threading the
  // index through every task signature.
  [[nodiscard]] static int current_worker_index() noexcept;

  // Schedules `fn` and returns a future for its result; an exception `fn`
  // throws propagates through the future.
  template <typename F>
  auto submit(F fn) -> std::future<std::invoke_result_t<F&>> {
    using R = std::invoke_result_t<F&>;
    auto prom = std::make_shared<std::promise<R>>();
    auto fut = prom->get_future();
    auto body = std::make_shared<F>(std::move(fn));
    enqueue([prom, body](WorkerCounters& c) { run_task<R>(*prom, *body, c); });
    return fut;
  }

  // The zero-thread form of submit(): runs `fn` once on the calling thread
  // with the counter accounting a worker applies. An exception `fn` throws
  // is dropped — callers observe outcomes through the task itself.
  template <typename F>
  static void run_inline(F fn, WorkerCounters& counters) {
    using R = std::invoke_result_t<F&>;
    std::promise<R> prom;
    const auto t0 = std::chrono::steady_clock::now();
    run_task<R>(prom, fn, counters);
    counters.busy_wall_s += std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
  }

  // Blocks until every submitted task has finished.
  void wait_idle();

  // Per-worker counter snapshot. Values are exact once the pool is idle;
  // mid-flight reads are safe but may lag in-progress tasks.
  [[nodiscard]] std::vector<WorkerCounters> counters() const;

 private:
  using Task = std::function<void(WorkerCounters&)>;

  struct Worker {
    // Guards both queue and counters. Every counter write — the steal bump
    // in try_acquire and the post-task delta merge in worker_loop — happens
    // under this mutex, and counters() reads under it too, so a concurrent
    // snapshot can lag in-flight tasks but never observes a torn update.
    mutable std::mutex mu;
    std::deque<Task> queue;
    WorkerCounters counters;
    std::thread thread;
  };

  template <typename R, typename F>
  static void run_task(std::promise<R>& prom, F& body, WorkerCounters& c) {
    ++c.tasks_run;
    try {
      if constexpr (std::is_void_v<R>) {
        body();
        prom.set_value();
      } else {
        prom.set_value(body());
      }
    } catch (const std::future_error&) {
      throw;  // promise already satisfied: a bug, not a task failure
    } catch (...) {
      prom.set_exception(std::current_exception());
    }
  }

  void enqueue(Task task);
  void worker_loop(std::size_t index);
  bool try_acquire(std::size_t index, Task& out);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::size_t next_queue_ = 0;  // round-robin submission target (under mu_)

  mutable std::mutex mu_;            // guards next_queue_ and wake/idle state
  std::condition_variable wake_cv_;  // work available or shutting down
  std::condition_variable idle_cv_;  // pending_ reached zero
  std::size_t queued_ = 0;           // tasks enqueued, not yet picked up
  std::size_t pending_ = 0;          // tasks enqueued, not yet finished
  bool stop_ = false;
};

}  // namespace vpna::util
