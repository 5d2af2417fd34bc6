// Work-stealing thread pool for embarrassingly parallel campaign work.
//
// Each worker owns a deque; submissions are distributed round-robin and an
// idle worker steals from the back of a victim's deque. Tasks carry an
// optional retry policy (generalizing the runner's connect_attempts), and
// every worker keeps lightweight counters (tasks run, steals, retries, busy
// wall/cpu time) that campaign reports surface.
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

// Per-task execution policy.
struct TaskOptions {
  // Total attempts before the task's failure is surfaced (>= 1). A thrown
  // exception consumes one attempt; the retry runs on the same worker.
  int max_attempts = 1;
};

// Counters one worker accumulates over its lifetime. Snapshot via
// TaskPool::counters(); totals via TaskPool::total_counters().
struct WorkerCounters {
  std::uint64_t tasks_run = 0;  // attempts started (retries included)
  std::uint64_t steals = 0;     // tasks taken from another worker's deque
  std::uint64_t retries = 0;    // failed attempts that were re-run
  double busy_wall_s = 0.0;     // wall time spent inside task bodies
  double busy_cpu_s = 0.0;      // thread cpu time spent inside task bodies
};

class TaskPool {
 public:
  // workers == 0 picks std::thread::hardware_concurrency() (min 1).
  explicit TaskPool(std::size_t workers = 0);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

  // Index of the pool worker running the calling thread, or -1 when the
  // caller is not a pool worker (e.g. a task run by run_inline). Lets a
  // task attribute status heartbeats to its worker without threading the
  // index through every task signature.
  [[nodiscard]] static int current_worker_index() noexcept;

  // Schedules `fn` and returns a future for its result. Retry policy comes
  // from `opts`; the final exception propagates through the future.
  template <typename F>
  auto submit(F fn, TaskOptions opts = {})
      -> std::future<std::invoke_result_t<F&>> {
    using R = std::invoke_result_t<F&>;
    auto prom = std::make_shared<std::promise<R>>();
    auto fut = prom->get_future();
    auto body = std::make_shared<F>(std::move(fn));
    enqueue([prom, body, opts](WorkerCounters& c) {
      run_with_policy<R>(*prom, *body, opts, c);
    });
    return fut;
  }

  // The zero-thread form of submit(): runs `fn` to completion on the
  // calling thread under the same retry policy and counter accounting a
  // worker applies. The final exception, if any, is dropped — callers
  // observe outcomes through the task itself.
  template <typename F>
  static void run_inline(F fn, TaskOptions opts, WorkerCounters& counters) {
    using R = std::invoke_result_t<F&>;
    std::promise<R> prom;
    const auto t0 = std::chrono::steady_clock::now();
    run_with_policy<R>(prom, fn, opts, counters);
    counters.busy_wall_s += std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
  }

  // Blocks until every submitted task has finished (including retries).
  void wait_idle();

  // Per-worker counter snapshot. Values are exact once the pool is idle;
  // mid-flight reads are safe but may lag in-progress tasks.
  [[nodiscard]] std::vector<WorkerCounters> counters() const;
  [[nodiscard]] WorkerCounters total_counters() const;

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
  static void run_with_policy(std::promise<R>& prom, F& body, TaskOptions opts,
                              WorkerCounters& c) {
    const int attempts = opts.max_attempts < 1 ? 1 : opts.max_attempts;
    for (int attempt = 1; attempt <= attempts; ++attempt) {
      ++c.tasks_run;
      try {
        if constexpr (std::is_void_v<R>) {
          body();
          prom.set_value();
        } else {
          prom.set_value(body());
        }
        return;
      } catch (const std::future_error&) {
        throw;  // promise already satisfied: a bug, not a task failure
      } catch (...) {
        if (attempt < attempts) {
          ++c.retries;
          continue;
        }
        prom.set_exception(std::current_exception());
        return;
      }
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
