// Parallel campaign engine: shards the §5.3 evaluation at provider
// granularity across a work-stealing pool, with a hard determinism
// contract — every provider runs in its own isolated shard testbed whose
// world seed derives only from (campaign seed, provider name), and shard
// reports merge back in canonical catalog order, so the aggregated report
// is byte-identical at any worker count and under any scheduling order.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/execution.h"
#include "core/runner.h"
#include "ecosystem/scale.h"
#include "netsim/routing_plane.h"
#include "obs/export.h"

namespace vpna::core {

// The paper campaign: the §5.3 suite over the evaluated catalog. The
// execution fields (jobs, attempts, cache, isolation, health plane,
// journal, interrupt) come from ExecutionOptions.
struct CampaignOptions : ExecutionOptions {
  // Per-vantage-point suite options, applied inside every shard runner.
  RunnerOptions runner;
  // Observability: when trace.enabled, every shard runs under its own
  // TraceRecorder + MetricsRegistry (bound to the shard's sim clock) and
  // the per-shard observations come back in CampaignReport::traces. Trace
  // content is part of the determinism contract: byte-identical exports at
  // any `jobs`. Traced runs bypass the cache (a ShardTrace is not part of
  // the cached artifact, so a hit could not reproduce it) and cannot
  // `isolate` (a ShardTrace does not stream over the frame protocol):
  // isolate + trace.enabled throws.
  obs::TraceConfig trace;
};

// The aggregated campaign result. `providers` is the deterministic payload
// (canonical catalog order); the ExecutionReport base is scheduling
// telemetry and legitimately varies run to run — serialize only
// `providers` when comparing campaigns for equivalence. A shard that
// failed every attempt keeps a placeholder report with connected=false
// vantage points in `providers`, so catalog order is preserved; under an
// active fault profile it is *quarantined* (see degraded_providers) rather
// than listed in failed_providers.
struct CampaignReport : ExecutionReport {
  std::uint64_t seed = 0;
  std::vector<ProviderReport> providers;
  // Providers that completed degraded under a fault profile: quarantined
  // shards plus shards with at least one degraded vantage point. Canonical
  // catalog order; always empty under FaultProfile::kOff. Part of the
  // deterministic payload.
  std::vector<std::string> degraded_providers;
  // Per-shard observations, aligned with `providers` (canonical catalog
  // order); empty when tracing is disabled. Deterministic payload: the
  // trace-determinism suite byte-compares its exports across worker counts.
  std::vector<obs::ShardTrace> traces;
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

struct ScaledCampaignOptions : ExecutionOptions {
  std::uint64_t seed = 20181031;
  // Per-shard eyeball-client materialization cap (see ScaledShardOptions).
  std::uint32_t max_clients = 4;
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

// The census cache is keyed per provider on the scaled catalog's
// provider_fingerprint() — independent of catalog size, so growing N
// providers to N+1 recomputes exactly the one new shard. A shard that
// exhausts its attempts on either backend keeps a zeroed census record, so
// the catalog-order payload still completes.
struct ScaledCampaignReport : ExecutionReport {
  std::uint64_t seed = 0;
  std::vector<ScaledShardCensus> shards;  // canonical catalog order
  std::uint64_t catalog_fingerprint = 0;
  // Canonical serialization of `shards` and its hash — the deterministic
  // payload (compare across jobs and backends by this).
  std::string payload;
  std::uint64_t payload_fingerprint = 0;
  // Arena bytes summed over shard worlds built in this process — in-process
  // only: under `isolate` the worlds live in the workers and these stay 0.
  // Deterministic (a pure function of the build sequence); cache hits skip
  // world construction entirely, so warm runs report 0.
  std::uint64_t arena_reserved_bytes = 0;
  std::uint64_t arena_used_bytes = 0;
  // Providers whose census shard failed or crashed every attempt (zeroed
  // record in `shards`): failed_providers ∪ crash_quarantined_providers,
  // in canonical catalog order.
  std::vector<std::string> crashed_providers;
  // Peak RSS of this (the driver's) process — not the isolated workers'.
  std::size_t peak_rss_kb = 0;
};

[[nodiscard]] ScaledCampaignReport run_scaled_campaign(
    const ecosystem::ScaledCatalog& catalog,
    const ScaledCampaignOptions& options = {});

// One scaled shard's census, computed in isolation: builds the provider's
// shard world, censuses it, and tears it down. Pure, so it agrees byte for
// byte with the census the campaign engine computes for shard `index`.
[[nodiscard]] ScaledShardCensus run_scaled_census_shard(
    const ecosystem::ScaledCatalog& catalog, std::size_t index,
    const ScaledCampaignOptions& options,
    std::shared_ptr<const netsim::RoutingPlane> plane = nullptr);

// Fingerprint of the census-shaping scaled options (max_clients): the
// census counterpart of runner_options_fingerprint.
[[nodiscard]] std::uint64_t scaled_options_fingerprint(
    const ScaledCampaignOptions& options);

// Content address of one scaled census shard: same six-field shape as
// campaign_shard_key, with the catalog slice fingerprint coming from
// ScaledCatalog::provider_fingerprint and the options fingerprint from
// scaled_options_fingerprint.
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
