#include "obs/status.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "obs/export.h"
#include "util/strings.h"

namespace vpna::obs {

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

StatusBoard::StatusBoard(std::function<double()> now)
    : now_(now ? std::move(now) : std::function<double()>(&steady_seconds)) {}

void StatusBoard::begin(const std::vector<std::string>& shards,
                        std::size_t jobs) {
  std::lock_guard<std::mutex> lock(mu_);
  names_ = &shards;
  slots_.assign(shards.size(), Slot{});
  completed_walls_.clear();
  alerts_.clear();
  workers_.clear();
  jobs_ = jobs;
  begin_s_ = now();
  cache_hits_ = 0;
  cache_misses_ = 0;
  cache_corrupt_ = 0;
}

void StatusBoard::cache_event(CacheEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (event) {
    case CacheEvent::kHit: ++cache_hits_; break;
    case CacheEvent::kMiss: ++cache_misses_; break;
    case CacheEvent::kCorrupt: ++cache_corrupt_; break;
  }
}

void StatusBoard::shard_started(std::size_t index, int worker) {
  std::lock_guard<std::mutex> lock(mu_);
  if (index >= slots_.size()) return;
  Slot& slot = slots_[index];
  slot.state = State::kRunning;
  slot.worker = worker;
  slot.start_s = now();
  slot.alerted = false;  // a fresh attempt gets a fresh watchdog budget
}

void StatusBoard::shard_attempt_failed(std::size_t index) {
  std::lock_guard<std::mutex> lock(mu_);
  if (index >= slots_.size()) return;
  Slot& slot = slots_[index];
  if (slot.state == State::kRunning) slot.state = State::kPending;
}

void StatusBoard::shard_finished(std::size_t index, Outcome outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  if (index >= slots_.size()) return;
  Slot& slot = slots_[index];
  // Only a successful run's wall feeds the ETA/watchdog median; failed and
  // quarantined shards would skew it with retry/timeout artefacts.
  if (outcome == Outcome::kDone && slot.state == State::kRunning)
    completed_walls_.push_back(now() - slot.start_s);
  switch (outcome) {
    case Outcome::kDone: slot.state = State::kDone; break;
    case Outcome::kQuarantined: slot.state = State::kQuarantined; break;
    case Outcome::kFailed: slot.state = State::kFailed; break;
  }
}

void StatusBoard::set_workers(std::vector<util::WorkerCounters> workers) {
  std::lock_guard<std::mutex> lock(mu_);
  workers_ = std::move(workers);
}

void StatusBoard::set_processes(std::vector<ProcessStatus> processes) {
  std::lock_guard<std::mutex> lock(mu_);
  processes_ = std::move(processes);
}

double StatusBoard::median_completed_locked() const {
  if (completed_walls_.empty()) return 0.0;
  std::vector<double> walls = completed_walls_;
  const auto mid = walls.begin() + static_cast<std::ptrdiff_t>(walls.size() / 2);
  std::nth_element(walls.begin(), mid, walls.end());
  if (walls.size() % 2 == 1) return *mid;
  const double hi = *mid;
  const double lo = *std::max_element(walls.begin(), mid);
  return (lo + hi) / 2.0;
}

std::vector<WatchdogAlert> StatusBoard::watchdog_scan(double multiple) {
  std::vector<WatchdogAlert> fresh;
  if (multiple <= 0.0) return fresh;
  std::lock_guard<std::mutex> lock(mu_);
  if (completed_walls_.size() < kWatchdogMinCompleted) return fresh;
  const double median = median_completed_locked();
  if (median <= 0.0) return fresh;
  const double t = now();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (slot.state != State::kRunning || slot.alerted) continue;
    const double elapsed = t - slot.start_s;
    if (elapsed <= multiple * median) continue;
    slot.alerted = true;
    WatchdogAlert alert;
    alert.shard = (*names_)[i];
    alert.worker = slot.worker;
    alert.elapsed_s = elapsed;
    alert.median_s = median;
    alerts_.push_back(alert);
    fresh.push_back(std::move(alert));
  }
  return fresh;
}

StatusSnapshot StatusBoard::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  StatusSnapshot snap;
  snap.total = slots_.size();
  const double t = now();
  snap.elapsed_s = t - begin_s_;
  snap.jobs = jobs_;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    switch (slot.state) {
      case State::kPending: break;
      case State::kRunning: {
        ++snap.running;
        StatusSnapshot::RunningShard running;
        running.shard = (*names_)[i];
        running.worker = slot.worker;
        running.elapsed_s = t - slot.start_s;
        snap.in_flight.push_back(std::move(running));
        break;
      }
      case State::kDone: ++snap.done; break;
      case State::kQuarantined: ++snap.quarantined; break;
      case State::kFailed: ++snap.failed; break;
    }
  }
  snap.completed = snap.done + snap.quarantined + snap.failed;
  snap.percent = snap.total == 0
                     ? 100.0
                     : 100.0 * static_cast<double>(snap.completed) /
                           static_cast<double>(snap.total);
  snap.median_shard_s = median_completed_locked();
  if (snap.median_shard_s > 0.0 && snap.total >= snap.completed) {
    const auto remaining =
        static_cast<double>(snap.total - snap.completed);
    const auto lanes = static_cast<double>(std::max<std::size_t>(jobs_, 1));
    snap.eta_s = remaining * snap.median_shard_s / lanes;
  }
  snap.alerts = alerts_;
  snap.workers = workers_;
  snap.processes = processes_;
  snap.cache_hits = cache_hits_;
  snap.cache_misses = cache_misses_;
  snap.cache_corrupt = cache_corrupt_;
  return snap;
}

std::vector<WatchdogAlert> StatusBoard::alerts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return alerts_;
}

std::string render_status_json(const StatusSnapshot& snap) {
  std::string out = "{\n";
  out += util::format("  \"total\": %zu,\n", snap.total);
  out += util::format("  \"completed\": %zu,\n", snap.completed);
  out += util::format("  \"done\": %zu,\n", snap.done);
  out += util::format("  \"quarantined\": %zu,\n", snap.quarantined);
  out += util::format("  \"failed\": %zu,\n", snap.failed);
  out += util::format("  \"running\": %zu,\n", snap.running);
  out += util::format("  \"percent\": %.1f,\n", snap.percent);
  out += util::format("  \"elapsed_s\": %.3f,\n", snap.elapsed_s);
  out += util::format("  \"median_shard_s\": %.3f,\n", snap.median_shard_s);
  out += util::format("  \"eta_s\": %.3f,\n", snap.eta_s);
  out += util::format("  \"jobs\": %zu,\n", snap.jobs);
  out += util::format(
      "  \"cache\": {\"hits\": %zu, \"misses\": %zu, \"corrupt\": %zu},\n",
      snap.cache_hits, snap.cache_misses, snap.cache_corrupt);
  out += "  \"in_flight\": [";
  for (std::size_t i = 0; i < snap.in_flight.size(); ++i) {
    const auto& shard = snap.in_flight[i];
    out += i == 0 ? "\n" : ",\n";
    out += util::format(
        "    {\"shard\": \"%s\", \"worker\": %d, \"elapsed_s\": %.3f}",
        json_escape(shard.shard).c_str(), shard.worker, shard.elapsed_s);
  }
  out += snap.in_flight.empty() ? "],\n" : "\n  ],\n";
  out += "  \"watchdog\": [";
  for (std::size_t i = 0; i < snap.alerts.size(); ++i) {
    const auto& alert = snap.alerts[i];
    out += i == 0 ? "\n" : ",\n";
    out += util::format(
        "    {\"shard\": \"%s\", \"worker\": %d, \"elapsed_s\": %.3f, "
        "\"median_s\": %.3f, \"ratio\": %.2f}",
        json_escape(alert.shard).c_str(), alert.worker, alert.elapsed_s,
        alert.median_s, alert.ratio());
  }
  out += snap.alerts.empty() ? "],\n" : "\n  ],\n";
  out += "  \"workers\": [";
  for (std::size_t i = 0; i < snap.workers.size(); ++i) {
    const auto& w = snap.workers[i];
    out += i == 0 ? "\n" : ",\n";
    out += util::format(
        "    {\"worker\": %zu, \"tasks_run\": %llu, \"steals\": %llu, "
        "\"busy_wall_s\": %.3f}",
        i, static_cast<unsigned long long>(w.tasks_run),
        static_cast<unsigned long long>(w.steals), w.busy_wall_s);
  }
  out += snap.workers.empty() ? "],\n" : "\n  ],\n";
  out += "  \"processes\": [";
  for (std::size_t i = 0; i < snap.processes.size(); ++i) {
    const auto& p = snap.processes[i];
    out += i == 0 ? "\n" : ",\n";
    out += util::format(
        "    {\"slot\": %d, \"pid\": %ld, \"alive\": %s, \"spawns\": %zu, "
        "\"shards_done\": %zu, \"crashes\": %zu, \"shard\": \"%s\"}",
        p.slot, p.pid, p.alive ? "true" : "false", p.spawns, p.shards_done,
        p.crashes, json_escape(p.shard).c_str());
  }
  out += snap.processes.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

bool write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::vector<WatchdogAlert> StatusBoard::tick(const StatusOptions& opts) {
  auto alerts = watchdog_scan(opts.watchdog_multiple);
  if (!opts.file.empty())
    write_file_atomic(opts.file, render_status_json(snapshot()));
  return alerts;
}

StatusMonitor::StatusMonitor(
    StatusBoard& board, StatusOptions opts,
    std::function<std::vector<util::WorkerCounters>()> workers)
    : board_(board), opts_(std::move(opts)), workers_(std::move(workers)) {
  thread_ = std::thread([this] { loop(); });
}

StatusMonitor::~StatusMonitor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  tick();
}

void StatusMonitor::loop() {
  const auto interval =
      std::chrono::duration<double, std::milli>(kStatusIntervalMs);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (cv_.wait_for(lock, interval, [this] { return stop_; })) return;
    lock.unlock();
    tick();
    lock.lock();
  }
}

void StatusMonitor::tick() {
  board_.set_workers(workers_());
  (void)board_.tick(opts_);
}

}  // namespace vpna::obs
