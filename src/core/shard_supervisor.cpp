#include "core/shard_supervisor.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include "core/worker_protocol.h"
#include "util/subprocess.h"

namespace vpna::core {

namespace {

// Exponential backoff between a shard's failed attempt and its re-run:
// initial × 2^(attempt-1), capped. Wall-clock telemetry only — the shard's
// recompute is deterministic regardless of when it happens.
constexpr double kBackoffInitialMs = 50.0;
constexpr double kBackoffMaxMs = 2000.0;
// Grace between SIGTERM and SIGKILL, in an escalation and at shutdown.
// Workers run with SIGTERM at its default, so the KILL is the backstop
// for a worker stuck where SIGTERM cannot reach it.
constexpr double kTermGraceS = 2.0;

double mono_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// VPNA_CRASH_SUPERVISOR=<n>[:kill|segv|exit] — self-destruct after the
// n-th terminal shard outcome (journal already flushed for it).
struct SupervisorCrash {
  std::size_t after = 0;
  enum class Mode : std::uint8_t { kKill, kSegv, kExit } mode = Mode::kKill;
};

std::optional<SupervisorCrash> parse_supervisor_crash() {
  const char* spec = std::getenv("VPNA_CRASH_SUPERVISOR");
  if (spec == nullptr || *spec == '\0') return std::nullopt;
  SupervisorCrash c;
  char* end = nullptr;
  c.after = static_cast<std::size_t>(std::strtoul(spec, &end, 10));
  if (end == spec) return std::nullopt;
  if (*end == ':') {
    const std::string mode(end + 1);
    if (mode == "kill") c.mode = SupervisorCrash::Mode::kKill;
    else if (mode == "segv") c.mode = SupervisorCrash::Mode::kSegv;
    else if (mode == "exit") c.mode = SupervisorCrash::Mode::kExit;
    else return std::nullopt;
  }
  return c;
}

[[noreturn]] void execute_supervisor_crash(const SupervisorCrash& c) {
  switch (c.mode) {
    case SupervisorCrash::Mode::kKill: ::raise(SIGKILL); break;
    case SupervisorCrash::Mode::kSegv: ::raise(SIGSEGV); break;
    case SupervisorCrash::Mode::kExit: ::_exit(42);
  }
  ::_exit(42);
}

struct Work {
  std::size_t index = 0;
  int attempt = 1;
  double ready_at = 0.0;  // monotonic seconds; backoff gate
};

struct Slot {
  util::Subprocess proc;
  FrameReader reader;
  bool live = false;
  bool poisoned = false;  // corrupt stream; kill pending
  bool has_inflight = false;
  std::size_t inflight_index = 0;
  int inflight_attempt = 0;
  double inflight_start = 0.0;
  bool alerted = false;    // watchdog alert raised for this attempt
  bool term_sent = false;  // escalation state
  double term_at = 0.0;
  std::size_t spawns = 0;
  std::size_t shards_done = 0;
  std::size_t crashes = 0;
};

}  // namespace

std::string_view supervised_outcome_name(
    SupervisedShard::Outcome outcome) noexcept {
  switch (outcome) {
    case SupervisedShard::Outcome::kPending: return "pending";
    case SupervisedShard::Outcome::kDone: return "done";
    case SupervisedShard::Outcome::kError: return "error";
    case SupervisedShard::Outcome::kCrashed: return "crashed";
    case SupervisedShard::Outcome::kSkipped: return "skipped";
  }
  return "pending";
}

ShardSupervisor::ShardSupervisor(SupervisorOptions options,
                                 std::vector<std::string> names,
                                 ChildRun child_run)
    : options_(std::move(options)),
      names_(std::move(names)),
      child_run_(std::move(child_run)) {}

SupervisorResult ShardSupervisor::run(const std::vector<std::size_t>& indices,
                                      obs::StatusBoard* status,
                                      const obs::StatusOptions& status_opts,
                                      const TerminalHook& on_terminal) {
  SupervisorResult result;
  result.shards.resize(names_.size());
  if (indices.empty()) return result;
  for (std::size_t i : indices)
    if (i >= names_.size())
      throw std::invalid_argument("ShardSupervisor: shard index out of range");

  // A dead worker's command pipe must error the write, not kill us.
  struct sigaction ignore_pipe {};
  struct sigaction old_pipe {};
  ignore_pipe.sa_handler = SIG_IGN;
  ::sigaction(SIGPIPE, &ignore_pipe, &old_pipe);

  const auto crash_directive = parse_supervisor_crash();
  std::size_t terminal_count = 0;

  std::vector<Work> pending;
  pending.reserve(indices.size());
  for (std::size_t i : indices) pending.push_back({i, 1, 0.0});
  std::size_t remaining = indices.size();

  const std::size_t jobs = std::max<std::size_t>(1, options_.jobs);
  std::vector<Slot> slots(jobs);
  std::size_t spawn_failures = 0;  // consecutive; a stuck launcher aborts

  std::vector<double> completed_walls;
  const double interval_s =
      std::max(status_opts.interval_ms, 1.0) / 1000.0;
  double last_tick = 0.0;

  const auto median_wall = [&]() -> double {
    if (completed_walls.empty()) return 0.0;
    std::vector<double> walls = completed_walls;
    const std::size_t mid = walls.size() / 2;
    std::nth_element(walls.begin(), walls.begin() + mid, walls.end());
    return walls[mid];
  };

  const auto backoff_s = [&](int attempt) {
    double ms = kBackoffInitialMs;
    for (int i = 1; i < attempt; ++i) ms *= 2.0;
    return std::min(ms, kBackoffMaxMs) / 1000.0;
  };

  const auto finish_shard = [&](std::size_t index,
                                SupervisedShard::Outcome oc, int attempts,
                                std::string payload_or_error) {
    auto& shard = result.shards[index];
    shard.outcome = oc;
    shard.attempts = attempts;
    if (oc == SupervisedShard::Outcome::kDone)
      shard.payload = std::move(payload_or_error);
    else
      shard.error = std::move(payload_or_error);
    --remaining;
    if (on_terminal) on_terminal(index, shard);
    ++terminal_count;
    if (crash_directive && terminal_count >= crash_directive->after)
      execute_supervisor_crash(*crash_directive);
  };

  const auto attempt_failed = [&](std::size_t index, int attempt,
                                  bool is_crash, std::string why) {
    if (attempt < options_.attempts) {
      pending.push_back({index, attempt + 1, mono_s() + backoff_s(attempt)});
      if (status != nullptr) status->shard_attempt_failed(index);
      return;
    }
    finish_shard(index,
                 is_crash ? SupervisedShard::Outcome::kCrashed
                          : SupervisedShard::Outcome::kError,
                 attempt, std::move(why));
  };

  const auto spawn_into = [&](Slot& slot) -> bool {
    try {
      const ChildRun& fn = child_run_;
      slot.proc = util::Subprocess::fork_child([&fn](int rfd, int wfd) {
        return shard_worker_loop(rfd, wfd, fn);
      });
    } catch (...) {
      ++spawn_failures;
      return false;
    }
    slot.reader = FrameReader{};
    slot.live = true;
    slot.poisoned = false;
    slot.has_inflight = false;
    slot.alerted = false;
    slot.term_sent = false;
    ++slot.spawns;
    ++result.spawns;
    return true;
  };

  // Decodes whatever frames the slot's buffered bytes hold. A corrupt
  // stream or a frame for the wrong shard poisons the worker: its framing
  // can no longer be trusted, so it is killed and the in-flight shard is
  // charged a crashed attempt (on reap).
  const auto process_frames = [&](Slot& slot) {
    if (slot.poisoned) return;
    ShardFrame frame;
    for (;;) {
      const auto r = slot.reader.next(&frame);
      if (r == FrameReader::Result::kNeedMore) return;
      if (r == FrameReader::Result::kCorrupt ||
          !slot.has_inflight ||
          frame.index != slot.inflight_index) {
        slot.poisoned = true;
        slot.proc.signal(SIGKILL);
        return;
      }
      slot.has_inflight = false;
      slot.term_sent = false;
      const double wall = mono_s() - slot.inflight_start;
      if (frame.status == ShardFrameStatus::kOk) {
        completed_walls.push_back(wall);
        ++slot.shards_done;
        finish_shard(frame.index, SupervisedShard::Outcome::kDone,
                     static_cast<int>(frame.attempt), std::move(frame.payload));
      } else {
        attempt_failed(frame.index, static_cast<int>(frame.attempt), false,
                       std::move(frame.payload));
      }
    }
  };

  const auto drain = [&](Slot& slot) {
    std::string bytes;
    const bool open = util::read_available(slot.proc.stdout_fd(), &bytes);
    if (!bytes.empty()) {
      slot.reader.feed(bytes);
      process_frames(slot);
    }
    return open;
  };

  // Reaps a dead worker: drain the pipe to EOF (frames written before
  // death are still valid results), then charge any unanswered in-flight
  // shard as a crashed attempt.
  const auto reap = [&](Slot& slot) {
    for (int spins = 0; spins < 4096; ++spins) {
      std::string bytes;
      const bool open = util::read_available(slot.proc.stdout_fd(), &bytes);
      if (!bytes.empty()) {
        slot.reader.feed(bytes);
        process_frames(slot);
      }
      if (!open) break;
      if (bytes.empty()) break;  // EAGAIN with a dead writer: all drained
    }
    const util::ExitStatus st = *slot.proc.status();
    if (slot.has_inflight) {
      ++slot.crashes;
      ++result.crashes;
      std::string why = "worker " + st.describe();
      if (slot.reader.has_partial()) why += ", torn result frame discarded";
      if (slot.poisoned) why = "worker result stream corrupted (" + why + ")";
      slot.has_inflight = false;
      attempt_failed(slot.inflight_index, slot.inflight_attempt, true,
                     std::move(why));
    }
    slot.live = false;
    slot.proc = util::Subprocess{};
  };

  // Picks the ready work item with the earliest (ready_at, index).
  const auto take_ready = [&](double now) -> std::optional<Work> {
    std::size_t best = pending.size();
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (pending[i].ready_at > now) continue;
      if (best == pending.size() ||
          pending[i].ready_at < pending[best].ready_at ||
          (pending[i].ready_at == pending[best].ready_at &&
           pending[i].index < pending[best].index))
        best = i;
    }
    if (best == pending.size()) return std::nullopt;
    const Work w = pending[best];
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(best));
    return w;
  };

  const auto dispatch = [&](Slot& slot, int slot_id, const Work& work) {
    const std::string cmd = encode_run_command(
        static_cast<std::uint32_t>(work.index),
        static_cast<std::uint32_t>(work.attempt));
    if (!util::write_all(slot.proc.stdin_fd(), cmd)) {
      // The worker is dying; the command never arrived. Requeue without
      // charging an attempt — the reap path owns the death accounting.
      pending.push_back(work);
      return;
    }
    slot.has_inflight = true;
    slot.inflight_index = work.index;
    slot.inflight_attempt = work.attempt;
    slot.inflight_start = mono_s();
    slot.alerted = false;
    slot.term_sent = false;
    if (status != nullptr)
      status->shard_started(work.index, slot_id);
  };

  const auto escalate = [&](Slot& slot, double now) {
    if (!slot.term_sent) {
      slot.proc.signal(SIGTERM);
      slot.term_sent = true;
      slot.term_at = now;
      ++result.kills;
    } else if (now - slot.term_at >= kTermGraceS) {
      slot.proc.signal(SIGKILL);
    }
  };

  const auto snapshot_processes = [&]() {
    std::vector<obs::ProcessStatus> procs;
    procs.reserve(slots.size());
    for (std::size_t s = 0; s < slots.size(); ++s) {
      const Slot& slot = slots[s];
      obs::ProcessStatus p;
      p.slot = static_cast<int>(s);
      p.pid = slot.live ? static_cast<long>(slot.proc.pid()) : -1;
      p.alive = slot.live;
      p.spawns = slot.spawns;
      p.shards_done = slot.shards_done;
      p.crashes = slot.crashes;
      if (slot.has_inflight) p.shard = names_[slot.inflight_index];
      procs.push_back(std::move(p));
    }
    return procs;
  };

  const auto status_tick = [&](bool force) {
    if (status == nullptr) return;
    const double now = mono_s();
    if (!force && now - last_tick < interval_s) return;
    last_tick = now;
    status->set_processes(snapshot_processes());
    if (!status_opts.file.empty())
      obs::write_file_atomic(status_opts.file,
                             obs::render_status_json(status->snapshot()));
  };

  bool interrupted = false;
  while (remaining > 0) {
    if (options_.interrupt != nullptr && *options_.interrupt != 0) {
      interrupted = true;
      break;
    }
    double now = mono_s();

    // 1. Reap the dead.
    for (auto& slot : slots)
      if (slot.live && slot.proc.poll().has_value()) reap(slot);

    // 2. Launcher health: if workers repeatedly fail to even start, the
    // remaining shards can never run — surface that as crashed shards
    // instead of spinning forever.
    if (spawn_failures >= 5) {
      while (!pending.empty()) {
        const Work w = pending.back();
        pending.pop_back();
        finish_shard(w.index, SupervisedShard::Outcome::kCrashed, w.attempt,
                     "worker process failed to start");
      }
      // In-flight shards (if any workers are alive) still finish below.
      if (remaining == 0) break;
    }

    // 3. Spawn + dispatch.
    for (std::size_t s = 0; s < slots.size(); ++s) {
      auto& slot = slots[s];
      if (!slot.live && spawn_failures < 5) {
        // Only stand a process up when runnable work exists for it.
        bool runnable = false;
        for (const auto& w : pending)
          if (w.ready_at <= now) runnable = true;
        if (runnable) {
          if (!spawn_into(slot)) continue;
        }
      }
      if (slot.live && !slot.poisoned && !slot.has_inflight) {
        if (auto work = take_ready(now)) dispatch(slot, static_cast<int>(s), *work);
      }
    }

    // 4. Hang escalation by the median-multiple watchdog: alert first,
    // TERM on the next pass, KILL after the grace.
    now = mono_s();
    const double med = median_wall();
    for (std::size_t s = 0; s < slots.size(); ++s) {
      auto& slot = slots[s];
      if (!slot.live || !slot.has_inflight) continue;
      const double elapsed = now - slot.inflight_start;
      if (options_.watchdog_multiple > 0.0 && med > 0.0 &&
          completed_walls.size() >= obs::kWatchdogMinCompleted &&
          elapsed > options_.watchdog_multiple * med) {
        if (!slot.alerted) {
          slot.alerted = true;
          obs::WatchdogAlert alert;
          alert.shard = names_[slot.inflight_index];
          alert.worker = static_cast<int>(s);
          alert.elapsed_s = elapsed;
          alert.median_s = med;
          result.alerts.push_back(alert);
          if (status != nullptr) status->add_alert(alert);
        } else {
          escalate(slot, now);
        }
      }
    }

    status_tick(false);

    // 5. Sleep on the worker pipes (50ms cap keeps escalation ticking).
    std::vector<struct pollfd> fds;
    std::vector<std::size_t> fd_slots;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (!slots[s].live) continue;
      fds.push_back({slots[s].proc.stdout_fd(), POLLIN, 0});
      fd_slots.push_back(s);
    }
    if (fds.empty()) {
      ::usleep(2000);
      continue;
    }
    const int rc = ::poll(fds.data(), fds.size(), 50);
    if (rc > 0) {
      for (std::size_t f = 0; f < fds.size(); ++f)
        if ((fds[f].revents & (POLLIN | POLLHUP)) != 0)
          (void)drain(slots[fd_slots[f]]);
    }
  }

  // Shutdown: on interrupt TERM→grace→KILL; otherwise close the command
  // pipes and let workers exit 0 on EOF (killing them would race their
  // final clean exit and show up as noise in the process telemetry).
  if (interrupted) {
    result.interrupted = true;
    for (auto& slot : slots)
      if (slot.live) slot.proc.signal(SIGTERM);
  } else {
    for (auto& slot : slots)
      if (slot.live) slot.proc.close_stdin();
  }
  const double deadline = mono_s() + kTermGraceS;
  for (;;) {
    bool any_live = false;
    for (auto& slot : slots) {
      if (!slot.live) continue;
      if (slot.proc.poll().has_value()) {
        slot.live = false;
        slot.proc = util::Subprocess{};
      } else {
        any_live = true;
      }
    }
    if (!any_live || mono_s() >= deadline) break;
    ::usleep(5000);
  }
  for (auto& slot : slots) {
    if (slot.live) {
      slot.proc.kill_now();
      slot.live = false;
      slot.proc = util::Subprocess{};
    }
  }

  if (interrupted) {
    for (std::size_t i : indices) {
      auto& shard = result.shards[i];
      if (shard.outcome == SupervisedShard::Outcome::kPending) {
        shard.outcome = SupervisedShard::Outcome::kSkipped;
        shard.error = "interrupted";
      }
    }
  }

  result.processes = snapshot_processes();
  status_tick(true);
  ::sigaction(SIGPIPE, &old_pipe, nullptr);
  return result;
}

}  // namespace vpna::core
