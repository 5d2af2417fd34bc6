// Parallel campaign engine: shards the §5.3 evaluation at provider
// granularity across a work-stealing pool, with a hard determinism
// contract — every provider runs in its own isolated shard testbed whose
// world seed derives only from (campaign seed, provider name), and shard
// reports merge back in canonical catalog order, so the aggregated report
// is byte-identical at any worker count and under any scheduling order.
#pragma once

#include <csignal>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/runner.h"
#include "ecosystem/scale.h"
#include "netsim/routing_plane.h"
#include "obs/export.h"
#include "obs/status.h"
#include "store/artifact_store.h"
#include "util/task_pool.h"

namespace vpna::core {

struct CampaignOptions {
  // Per-vantage-point suite options, applied inside every shard runner.
  RunnerOptions runner;
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
  // Isolated backend only: hard per-attempt wall budget of a worker
  // process (0 = none). Past it the supervisor escalates SIGTERM →
  // SIGKILL and charges the shard a crashed attempt. In-process shards
  // cannot be pre-empted and have no timeout.
  double shard_timeout_s = 0.0;
  // Observability: when trace.enabled, every shard runs under its own
  // TraceRecorder + MetricsRegistry (bound to the shard's sim clock) and
  // the per-shard observations come back in CampaignReport::traces. Trace
  // content is part of the determinism contract: byte-identical exports at
  // any `jobs` (unless trace.capture_wall opts into wall-clock data).
  obs::TraceConfig trace;
  // Health plane: live progress heartbeats, an optional --status-file JSON
  // rewritten atomically on every monitor tick, and a watchdog that flags
  // shards running far past the completed-shard median. Pure wall-clock
  // telemetry — never touches the deterministic payload (the health-plane
  // identity test byte-compares payloads with this on and off).
  obs::StatusOptions status;
  // Content-addressed shard cache (store::ArtifactStore). Off by default;
  // when enabled, each shard consults the store before building its world
  // and replays a cached report through the same canonical-order merge.
  // Sound because shards are pure: equal ShardKey implies a byte-identical
  // report, so the payload is invariant under cache mode (the cache
  // identity test byte-compares payloads off/rw/ro, cold and warm).
  // Traced runs bypass the cache — a ShardTrace is not part of the cached
  // artifact, so a hit could not reproduce it.
  store::CacheConfig cache;

  // --- process isolation (`--isolate`) --------------------------------------
  // Run every shard in a supervised worker process instead of a pool
  // thread: reports stream back as checksummed frames, and a worker that
  // segfaults, is OOM-killed, or hangs is contained — its shard retries on
  // a fresh process and, exhausted, quarantines while the campaign
  // completes. The payload stays byte-identical to the in-process engine
  // (same shard purity, same canonical merge; the isolate identity test
  // byte-compares them). Incompatible with tracing (a ShardTrace cannot
  // stream over the frame protocol): isolate + trace.enabled throws.
  bool isolate = false;
  // SIGTERM→SIGKILL grace for hang escalation and shutdown.
  double term_grace_s = 2.0;
  // Exec-mode worker command line (a process that speaks the worker
  // protocol on its stdio, e.g. `full_campaign ... --vpna-worker`). Empty
  // = fork mode: workers fork from this process, no exec.
  std::vector<std::string> worker_argv;
  // Durable append-only journal (store::CampaignJournal). Empty = none.
  std::string journal_path;
  // Replay journaled-done shards whose artifacts still fetch + decode
  // (requires `cache`); everything else recomputes. Resume against a
  // journal from a different campaign configuration throws.
  bool resume = false;
  // Cooperative SIGINT/SIGTERM flag: when non-zero the supervisor stops
  // dispatching, reaps workers, and returns with interrupted = true.
  const volatile std::sig_atomic_t* interrupt = nullptr;
};

// Per-shard cache provenance, recorded in canonical catalog order alongside
// `providers`. Telemetry, not payload: outcomes depend on what the store
// held before the run.
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

// The aggregated campaign result. `providers` is the deterministic payload
// (canonical catalog order); `workers`/`wall_s` are scheduling telemetry
// and legitimately vary run to run — serialize only `providers` when
// comparing campaigns for equivalence.
struct CampaignReport {
  std::uint64_t seed = 0;
  std::size_t jobs = 1;
  std::vector<ProviderReport> providers;
  // Providers whose shard failed every attempt (empty in healthy runs);
  // a placeholder report with connected=false vantage points remains in
  // `providers` so catalog order is preserved. Under an active fault
  // profile exhausted shards are *quarantined* instead (see
  // degraded_providers) and never land here — this list is reserved for
  // hard failures that should fail the run.
  std::vector<std::string> failed_providers;
  // Providers that completed degraded under a fault profile: quarantined
  // shards plus shards with at least one degraded vantage point. Canonical
  // catalog order; always empty under FaultProfile::kOff. Part of the
  // deterministic payload.
  std::vector<std::string> degraded_providers;
  // Per-shard observations, aligned with `providers` (canonical catalog
  // order); empty when tracing is disabled. Deterministic payload: the
  // trace-determinism suite byte-compares its exports across worker counts.
  std::vector<obs::ShardTrace> traces;
  std::vector<util::WorkerCounters> workers;
  // Watchdog records raised during the run (wall-clock telemetry like
  // `workers`/`wall_s`: varies run to run, excluded from the payload).
  // Empty unless CampaignOptions::status armed the watchdog.
  std::vector<obs::WatchdogAlert> watchdog_alerts;
  // Cache provenance, aligned with `providers` (canonical catalog order);
  // empty when the cache is disabled. Telemetry — store state varies run
  // to run, so this never feeds the payload.
  std::vector<ShardCacheRecord> cache_records;
  // --- isolate-mode provenance/telemetry ------------------------------------
  // True when the run used supervised worker processes.
  bool execution_isolated = false;
  // True when a SIGINT/SIGTERM interrupt cut the run short; unfinished
  // shards hold empty placeholders and the payload is incomplete.
  bool interrupted = false;
  // Providers quarantined because their shard *crashed* every isolated
  // attempt (worker death/kill, not an in-shard exception). Canonical
  // catalog order. Distinct from fault-profile quarantine: a crash
  // quarantine is an engine-health event and fails the run with its own
  // exit code even though the campaign completed.
  std::vector<std::string> crash_quarantined_providers;
  // Shards replayed from the journal + artifact store by --resume.
  std::size_t resumed_shards = 0;
  // Worker-process lifecycle counters (wall-clock telemetry).
  std::size_t process_spawns = 0;
  std::size_t process_crashes = 0;
  std::size_t process_kills = 0;
  std::size_t process_timeouts = 0;
  std::vector<obs::ProcessStatus> processes;  // final per-slot snapshot
  double wall_s = 0.0;
};

// Runs the full suite for one provider in an isolated shard testbed built
// by ecosystem::build_provider_shard(name, campaign_seed). Pure: the
// result depends only on (name, campaign_seed, options) — `plane` is a
// read-only accelerator handed to the shard world (nullptr = the shard
// computes its own) and never changes the result. Throws
// std::invalid_argument for unknown provider names.
[[nodiscard]] ProviderReport run_provider_shard(
    const std::string& name, std::uint64_t campaign_seed,
    const RunnerOptions& options,
    std::shared_ptr<const netsim::RoutingPlane> plane = nullptr);

// Traced variant: runs the shard under a fresh TraceRecorder/MetricsRegistry
// bound to the shard world's sim clock and returns the observation through
// `out` (ignored when !trace.enabled or out == nullptr). Still pure — the
// trace is as deterministic as the report.
[[nodiscard]] ProviderReport run_provider_shard(
    const std::string& name, std::uint64_t campaign_seed,
    const RunnerOptions& options, const obs::TraceConfig& trace,
    obs::ShardTrace* out,
    std::shared_ptr<const netsim::RoutingPlane> plane = nullptr);

// Content address of one provider shard under the base evaluated catalog:
// (code epoch, payload format, per-provider catalog-slice fingerprint,
// shard seed, fault profile, capacity profile, runner-options fingerprint)
// — exactly the inputs run_provider_shard is a pure function of. Exposed
// for tests and --explain-cache; the campaign derives the same keys
// internally.
[[nodiscard]] store::ShardKey campaign_shard_key(const std::string& name,
                                                 std::uint64_t seed,
                                                 const RunnerOptions& options);

// --- scaled campaigns --------------------------------------------------------
// The O(10³)-provider census path: every provider in a synthetic scaled
// catalog gets its own shard world (same shard_seed discipline as the paper
// campaign), each shard reports a deterministic census record, and records
// merge in canonical catalog order. Each worker builds a shard world only
// while it runs that shard, so peak RSS is bounded by the worker count,
// not the shard count. The payload is byte-identical at any `jobs`.

struct ScaledCampaignOptions {
  std::uint64_t seed = 20181031;
  // Worker threads (or processes under `isolate`); 0 = hardware
  // concurrency.
  std::size_t jobs = 1;
  // Per-shard eyeball-client materialization cap (see ScaledShardOptions).
  std::uint32_t max_clients = 4;
  // Total attempts per census shard, either backend (as
  // CampaignOptions::shard_attempts).
  int shard_attempts = 3;
  // Content-addressed census cache, keyed per provider on the scaled
  // catalog's provider_fingerprint() — independent of catalog size, so
  // growing N providers to N+1 recomputes exactly the one new shard.
  store::CacheConfig cache;
  // Process isolation (same machinery as CampaignOptions::isolate): census
  // shards run in supervised worker processes. On either backend a shard
  // that exhausts its attempts keeps a zeroed census record, listed in
  // crashed_providers, so the catalog-order payload still completes.
  bool isolate = false;
  double term_grace_s = 2.0;
  std::vector<std::string> worker_argv;  // empty = fork-mode workers
  const volatile std::sig_atomic_t* interrupt = nullptr;
};

// One shard's deterministic census record.
struct ScaledShardCensus {
  std::string provider;
  std::uint32_t vantage_points = 0;      // deployed, incl. reseller aliases
  std::uint32_t hosts = 0;               // shard-world host count
  std::uint32_t clients = 0;             // materialized subscriber eyeballs
  std::uint32_t modeled_subscribers = 0; // catalog count (not materialized)
  std::uint64_t address_fingerprint = 0; // FNV over vantage addrs, deploy order
};

struct ScaledCampaignReport {
  std::uint64_t seed = 0;
  std::size_t jobs = 1;
  std::vector<ScaledShardCensus> shards;  // canonical catalog order
  std::uint64_t catalog_fingerprint = 0;
  // Canonical serialization of `shards` and its hash — the deterministic
  // payload (compare across jobs and backends by this).
  std::string payload;
  std::uint64_t payload_fingerprint = 0;
  // Arena bytes summed over shard worlds (deterministic: a pure function
  // of the build sequence). Covers only shards actually built this run —
  // cache hits skip world construction entirely, so warm runs report 0.
  std::uint64_t arena_reserved_bytes = 0;
  std::uint64_t arena_used_bytes = 0;
  // Cache provenance in canonical catalog order; empty when disabled.
  std::vector<ShardCacheRecord> cache_records;
  // Providers whose census shard failed or crashed every attempt (zeroed
  // record in `shards`), plus isolate-mode provenance and process telemetry.
  bool execution_isolated = false;
  bool interrupted = false;
  std::vector<std::string> crashed_providers;
  std::size_t process_spawns = 0;
  std::size_t process_crashes = 0;
  // Wall-clock telemetry, excluded from the payload.
  std::size_t peak_rss_kb = 0;
  double wall_s = 0.0;
};

[[nodiscard]] ScaledCampaignReport run_scaled_campaign(
    const ecosystem::ScaledCatalog& catalog,
    const ScaledCampaignOptions& options = {});

// One scaled shard's census, computed in isolation: builds the provider's
// shard world, censuses it, and tears it down. This is the worker-process
// entry point for isolated scaled campaigns (`--scale --isolate`); pure,
// so it agrees byte for byte with the in-process engine.
[[nodiscard]] ScaledShardCensus run_scaled_census_shard(
    const ecosystem::ScaledCatalog& catalog, std::size_t index,
    const ScaledCampaignOptions& options,
    std::shared_ptr<const netsim::RoutingPlane> plane = nullptr);

// Content address of one scaled census shard: same six-field shape as
// campaign_shard_key, with the catalog slice fingerprint coming from
// ScaledCatalog::provider_fingerprint and the options fingerprint covering
// the census-shaping scaled options (max_clients).
[[nodiscard]] store::ShardKey scaled_shard_key(
    const ecosystem::ScaledCatalog& catalog, const std::string& name,
    const ScaledCampaignOptions& options);

class ParallelCampaign {
 public:
  explicit ParallelCampaign(CampaignOptions options = {});

  // Runs shards for the named providers; an empty list means the full
  // evaluated catalog. Names are canonicalized to catalog order (unknown
  // names dropped, duplicates collapsed) before sharding, so the caller's
  // ordering never influences the result.
  [[nodiscard]] CampaignReport run(const std::vector<std::string>& names = {},
                                   std::uint64_t seed = 20181031);

 private:
  CampaignOptions options_;
};

}  // namespace vpna::core
