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
//   hang           → the StatusBoard's median-multiple watchdog alerts,
//                    and the supervisor escalates: SIGTERM → grace →
//                    SIGKILL, then the retry path above;
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

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/execution.h"
#include "obs/status.h"

namespace vpna::core {

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

struct SupervisorResult {
  std::vector<SupervisedShard> shards;  // indexed by global shard index
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

  // Reads `jobs` (worker processes, already resolved: 0 means 1),
  // `shard_attempts` (crash or error frame alike), `status` and
  // `interrupt`. Hangs are judged by the board's watchdog
  // (obs::StatusBoard::watchdog_scan), exactly as in-process; here the
  // supervisor escalates each alerted slot into TERM→KILL, because a stuck
  // worker *can* be killed without taking the campaign down. When
  // `interrupt` becomes non-zero the supervisor stops dispatching,
  // TERM→KILLs workers, marks unfinished shards kSkipped, and returns with
  // interrupted=true.
  ShardSupervisor(ExecutionOptions options, std::vector<std::string> names,
                  ChildRun child_run);

  // Runs the shards listed in `indices` (each < names.size()). Heartbeats
  // and per-process info flow into `board`, and every
  // obs::kStatusIntervalMs the poll loop runs its tick() (watchdog scan,
  // status-file rewrite).
  SupervisorResult run(const std::vector<std::size_t>& indices,
                       obs::StatusBoard& board,
                       const TerminalHook& on_terminal = nullptr);

 private:
  ExecutionOptions options_;
  std::vector<std::string> names_;
  ChildRun child_run_;
};

}  // namespace vpna::core
