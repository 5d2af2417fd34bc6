// How a campaign executes, declared once for every shard kind: the options
// both campaign option structs derive from, the per-shard cache
// provenance, and the execution telemetry both campaign reports derive
// from. The shard executor and the worker supervisor read these fields
// directly, so a paper campaign and a scaled census share one meaning for
// jobs, retries, cache, isolation, health plane, journal and interrupt.
#pragma once

#include <csignal>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/status.h"
#include "store/artifact_store.h"
#include "util/task_pool.h"

namespace vpna::core {

struct ExecutionOptions {
  // Worker threads (or worker processes under `isolate`); 0 = hardware
  // concurrency. In-process, jobs = 1 runs the very same shard tasks on
  // the calling thread.
  std::size_t jobs = 1;
  // The one retry budget: total attempts per shard on either backend
  // (generalizes connect_attempts one level up). In-process, a shard that
  // throws is re-run; isolated, a shard whose worker crashes, hangs or
  // reports an error is re-run on a fresh process. Shards are pure, so a
  // re-run is identical.
  int shard_attempts = 3;
  // Content-addressed shard cache (store::ArtifactStore), off by default:
  // each shard consults the store before building its world and replays a
  // cached result through the same canonical-order merge. Sound because
  // shards are pure (equal ShardKey, byte-identical result), so the payload
  // is invariant under cache mode.
  store::CacheConfig cache;
  // Run every shard in a supervised worker process forked from this one
  // instead of a pool thread: a worker that segfaults, is OOM-killed, or
  // hangs is contained — its shard retries on a fresh process and,
  // exhausted, quarantines while the campaign completes. The payload stays
  // byte-identical to the in-process engine.
  bool isolate = false;
  // Health plane: progress heartbeats, an optional status-file JSON
  // rewritten atomically every obs::kStatusIntervalMs, and a watchdog that
  // flags shards running far past the median wall of the shards computed
  // this run. Wall-clock telemetry only. Under `isolate` the watchdog is
  // also the one hang budget: a flagged worker is escalated SIGTERM →
  // SIGKILL and its shard charged a crashed attempt (in-process it only
  // alerts).
  obs::StatusOptions status;
  // Durable append-only journal (store::CampaignJournal). Empty = none.
  std::string journal_path;
  // Replay journaled-done shards whose artifacts still fetch + decode
  // (requires `cache`); everything else recomputes. Resume against a
  // journal from a different campaign configuration throws
  // std::runtime_error before any shard runs.
  bool resume = false;
  // Cooperative SIGINT/SIGTERM flag: when non-zero the supervisor stops
  // dispatching, reaps workers, and returns with interrupted = true.
  const volatile std::sig_atomic_t* interrupt = nullptr;
};

// Per-shard cache provenance, recorded in canonical catalog order. Telemetry,
// not payload: outcomes depend on what the store held before the run.
struct ShardCacheRecord {
  enum class Outcome : std::uint8_t {
    kBypass,   // cache not consulted (disabled, traced, or failed shard)
    kHit,      // artifact fetched, decoded, and replayed — world never built
    kMiss,     // no artifact under this key; shard recomputed
    kCorrupt,  // artifact present but failed integrity/decode; recomputed
  };
  std::string provider;
  std::string key_id;   // content address (hex); empty when cache disabled
  Outcome outcome = Outcome::kBypass;
  bool stored = false;  // recomputed result written back to the store
  std::uint64_t bytes = 0;  // artifact payload bytes read (hit) or written
};

[[nodiscard]] std::string_view cache_outcome_name(
    ShardCacheRecord::Outcome outcome) noexcept;

// Aggregate view over a run's cache records (manifest + CLI summaries).
struct CacheSummary {
  std::size_t shards = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t corrupt = 0;
  std::size_t bypassed = 0;
  std::size_t stored = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
};

[[nodiscard]] CacheSummary summarize_cache(
    const std::vector<ShardCacheRecord>& records) noexcept;

// How a campaign's shards executed: telemetry and provenance, never part
// of the payload. The two outcome lists name shards whose slot holds a
// placeholder. This is the one record of how a run went: the manifests,
// the console summary and the exit code all read it directly.
struct ExecutionReport {
  std::size_t jobs = 1;
  // Shards that threw on every attempt with no fault profile to degrade
  // into (canonical catalog order): a hard failure that fails the run.
  std::vector<std::string> failed_providers;
  // Shards whose worker crashed, was killed, or sent an undecodable result
  // on every isolated attempt (canonical catalog order): an engine-health
  // event with its own exit code, although the campaign completed.
  std::vector<std::string> crash_quarantined_providers;
  // Pool counters of the in-process backend (empty under `isolate`).
  std::vector<util::WorkerCounters> workers;
  // Attempts beyond the first, summed over every settled shard on either
  // backend: Σ(attempts used − 1). Cache and journal replays count 0.
  std::uint64_t retries = 0;
  // Watchdog records; empty unless `status` armed the watchdog.
  std::vector<obs::WatchdogAlert> watchdog_alerts;
  // Cache provenance in canonical catalog order; empty when disabled.
  std::vector<ShardCacheRecord> cache_records;
  // True when the run used supervised worker processes.
  bool execution_isolated = false;
  // True when a SIGINT/SIGTERM interrupt cut the run short; unfinished
  // shards hold placeholders and the payload is incomplete.
  bool interrupted = false;
  // Shards replayed from the journal + artifact store by `resume`.
  std::size_t resumed_shards = 0;
  // Worker-process lifecycle counters (isolated runs).
  std::size_t process_spawns = 0;
  std::size_t process_crashes = 0;
  std::size_t process_kills = 0;
  std::vector<obs::ProcessStatus> processes;  // final per-slot snapshot
  double wall_s = 0.0;
};

}  // namespace vpna::core
