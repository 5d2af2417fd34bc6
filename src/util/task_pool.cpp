#include "util/task_pool.h"

#ifdef __linux__
#include <time.h>
#endif

namespace vpna::util {

namespace {

thread_local int t_worker_index = -1;

double thread_cpu_seconds() {
#ifdef __linux__
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
#endif
  return 0.0;
}

}  // namespace

TaskPool::TaskPool(std::size_t workers) {
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    workers_.push_back(std::make_unique<Worker>());
  for (std::size_t i = 0; i < workers; ++i)
    workers_[i]->thread = std::thread([this, i] { worker_loop(i); });
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (auto& w : workers_)
    if (w->thread.joinable()) w->thread.join();
}

void TaskPool::enqueue(Task task) {
  std::size_t target;
  {
    std::lock_guard<std::mutex> lock(mu_);
    target = next_queue_;
    next_queue_ = (next_queue_ + 1) % workers_.size();
    ++pending_;
  }
  {
    std::lock_guard<std::mutex> lock(workers_[target]->mu);
    workers_[target]->queue.push_back(std::move(task));
  }
  // The task must be visible in a deque before it is counted as queued,
  // otherwise a spinning worker could claim the unit, find every deque
  // empty, and strand the task.
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++queued_;
  }
  wake_cv_.notify_one();
}

bool TaskPool::try_acquire(std::size_t index, Task& out) {
  // Own queue first (front: submission order), then steal from the back of
  // the first non-empty victim, scanning round-robin from our right
  // neighbour so contention spreads out.
  {
    auto& own = *workers_[index];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.queue.empty()) {
      out = std::move(own.queue.front());
      own.queue.pop_front();
      return true;
    }
  }
  for (std::size_t off = 1; off < workers_.size(); ++off) {
    auto& victim = *workers_[(index + off) % workers_.size()];
    bool stolen = false;
    {
      std::lock_guard<std::mutex> lock(victim.mu);
      if (!victim.queue.empty()) {
        out = std::move(victim.queue.back());
        victim.queue.pop_back();
        stolen = true;
      }
    }
    if (stolen) {
      auto& self = *workers_[index];
      std::lock_guard<std::mutex> lock(self.mu);
      ++self.counters.steals;
      return true;
    }
  }
  return false;
}

int TaskPool::current_worker_index() noexcept { return t_worker_index; }

void TaskPool::worker_loop(std::size_t index) {
  t_worker_index = static_cast<int>(index);
  auto& self = *workers_[index];
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_cv_.wait(lock, [this] { return stop_ || queued_ > 0; });
      if (queued_ == 0) {
        if (stop_) return;
        continue;
      }
      // Claim one unit of queued work before releasing the pool lock; the
      // actual task is fetched from the deques below.
      --queued_;
    }
    if (!try_acquire(index, task)) {
      // A concurrent thief took "our" task between the claim and the deque
      // scan. Return the claim so the unit is re-scanned — the matching
      // task is still sitting in some deque.
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++queued_;
      }
      wake_cv_.notify_one();
      std::this_thread::yield();
      continue;
    }
    // Policy bookkeeping lands in a task-local delta merged under the
    // worker's lock afterwards, so counters() never races a running task.
    WorkerCounters delta;
    const auto wall0 = std::chrono::steady_clock::now();
    const double cpu0 = thread_cpu_seconds();
    task(delta);
    delta.busy_cpu_s = thread_cpu_seconds() - cpu0;
    delta.busy_wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
            .count();
    {
      std::lock_guard<std::mutex> lock(self.mu);
      self.counters.tasks_run += delta.tasks_run;
      self.counters.retries += delta.retries;
      self.counters.busy_wall_s += delta.busy_wall_s;
      self.counters.busy_cpu_s += delta.busy_cpu_s;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --pending_;
      if (pending_ == 0) idle_cv_.notify_all();
    }
  }
}

void TaskPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return pending_ == 0; });
}

std::vector<WorkerCounters> TaskPool::counters() const {
  std::vector<WorkerCounters> out;
  out.reserve(workers_.size());
  for (const auto& w : workers_) {
    std::lock_guard<std::mutex> lock(w->mu);
    out.push_back(w->counters);
  }
  return out;
}

WorkerCounters TaskPool::total_counters() const {
  WorkerCounters total;
  for (const auto& c : counters()) {
    total.tasks_run += c.tasks_run;
    total.steals += c.steals;
    total.retries += c.retries;
    total.busy_wall_s += c.busy_wall_s;
    total.busy_cpu_s += c.busy_cpu_s;
  }
  return total;
}

}  // namespace vpna::util
