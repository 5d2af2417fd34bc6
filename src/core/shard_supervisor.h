// Shard-process supervisor: the crash/hang containment engine behind
// `--isolate`.
//
// The supervisor runs `jobs` persistent worker processes, each executing
// one shard at a time in its own heap. Work is fed over the command pipe
// (core/worker_protocol.h) and results stream back as checksummed frames,
// so the supervisor's address space is never exposed to anything a shard
// does: a worker that segfaults, is OOM-killed, exits non-zero, corrupts
// its result stream, or hangs is *contained* —
//
//   death/garbage  → the in-flight shard is retried with exponential
//                    backoff on a fresh process, up to a retry budget,
//                    then reported as crashed (the campaign quarantines it
//                    and completes);
//   hang           → the median-multiple watchdog escalates: structured
//                    alert → SIGTERM → grace → SIGKILL, then the retry
//                    path above;
//   exception      → the worker catches it and reports an error frame (the
//                    process survives and takes more work); exhausted
//                    error retries surface like in-process exhaustion.
//
// Workers are forked from this process (util::Subprocess::fork_child) and
// run `child_run` directly. The supervisor itself is single-threaded — one
// poll(2) loop over worker pipes — which keeps fork() without exec safe and
// makes every state transition deterministic given the same sequence of
// worker events. Completed shards invoke `on_terminal` immediately, which
// is where the campaign appends its journal record and files the artifact:
// a supervisor killed at any instant leaves a journal describing exactly
// the shards whose results are durable.
//
// Deterministic supervisor-crash injection (resume tests, CI):
//   VPNA_CRASH_SUPERVISOR=<n>[:kill|segv|exit]
// self-destructs the supervisor right after the n-th terminal outcome has
// been recorded (journal included) — the scripted stand-in for a host
// crash mid-campaign.
#pragma once

#include <csignal>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/status.h"

namespace vpna::core {

struct SupervisorOptions {
  std::size_t jobs = 1;
  // Total attempts per shard (crash or error frame alike); the campaign's
  // shard_attempts.
  int attempts = 3;
  // Median-multiple watchdog (0 = off): the one hang budget. The alert
  // has the in-process semantics (obs::StatusBoard::watchdog_scan); here
  // the supervisor escalates past it into TERM→KILL, because a stuck
  // worker *can* be killed without taking the campaign down.
  double watchdog_multiple = 0.0;
  // Cooperative interrupt (SIGINT/SIGTERM handler flag). When it becomes
  // non-zero the supervisor stops dispatching, TERM→KILLs workers, marks
  // unfinished shards kSkipped, and returns with interrupted=true.
  const volatile std::sig_atomic_t* interrupt = nullptr;
};

// Terminal state of one supervised shard.
struct SupervisedShard {
  enum class Outcome : std::uint8_t {
    kPending,  // never scheduled (not in `indices`, or run interrupted)
    kDone,     // ok frame received; `payload` holds the report bytes
    kError,    // every attempt ended in an in-worker exception
    kCrashed,  // every attempt ended in process death / kill / torn stream
    kSkipped,  // interrupted before completion
  };
  Outcome outcome = Outcome::kPending;
  int attempts = 0;
  std::string payload;  // canonical report bytes (kDone only)
  std::string error;    // last error/exit description (kError/kCrashed)
};

[[nodiscard]] std::string_view supervised_outcome_name(
    SupervisedShard::Outcome outcome) noexcept;

struct SupervisorResult {
  std::vector<SupervisedShard> shards;  // indexed by global shard index
  std::vector<obs::WatchdogAlert> alerts;
  // Final per-slot process telemetry (obs::ProcessStatus is also what the
  // supervisor pushes into the StatusBoard each tick).
  std::vector<obs::ProcessStatus> processes;
  std::size_t spawns = 0;
  std::size_t crashes = 0;  // process deaths with a shard in flight
  std::size_t kills = 0;    // watchdog escalations
  bool interrupted = false;
};

class ShardSupervisor {
 public:
  // `run(index, attempt)` executes in the forked CHILD and must return the
  // shard's canonical payload bytes; exceptions become error frames.
  using ChildRun = std::function<std::string(std::uint32_t, std::uint32_t)>;
  // Invoked in the SUPERVISOR the moment a shard reaches a terminal
  // outcome: the campaign's terminal-outcome handler (result, artifact,
  // journal, status shard_finished). Never invoked for kSkipped.
  using TerminalHook = std::function<void(std::size_t, const SupervisedShard&)>;

  ShardSupervisor(SupervisorOptions options, std::vector<std::string> names,
                  ChildRun child_run);

  // Runs the shards listed in `indices` (each < names.size()). `status`
  // may be null; when given, heartbeats and per-process info flow into it
  // and `status_opts.file` is rewritten atomically every interval.
  SupervisorResult run(const std::vector<std::size_t>& indices,
                       obs::StatusBoard* status,
                       const obs::StatusOptions& status_opts,
                       const TerminalHook& on_terminal = nullptr);

 private:
  SupervisorOptions options_;
  std::vector<std::string> names_;
  ChildRun child_run_;
};

}  // namespace vpna::core
