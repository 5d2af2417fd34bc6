// Run manifest: one JSON record describing what a campaign run computed,
// from what inputs, with what code — written next to the other artefacts
// as run_manifest.json.
//
// The manifest's `key` section is the deterministic identity of the
// computation: catalog fingerprint, campaign seed, per-provider shard
// seeds, fault/capacity profile, and the FNV-1a fingerprint of the
// serialized payload. Two runs with equal key sections produced (and will
// always produce) byte-identical payloads — exactly the cache key the
// ROADMAP's content-addressed artifact store needs to decide whether a
// shard or a whole campaign can replay from cache.
//
// The `run`, `build`, and `telemetry` sections are provenance: how the
// computation was executed (jobs, attempts), by what toolchain, and how it
// went (wall stats, pool counters, degradation and watchdog summaries).
// Telemetry varies run to run by nature; nothing in it feeds the key.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/parallel_campaign.h"
#include "obs/status.h"

namespace vpna::analysis {

struct RunManifest {
  // --- key: deterministic cache identity --------------------------------
  std::uint64_t catalog_fingerprint = 0;
  std::uint64_t campaign_seed = 0;
  // (provider, shard seed) in canonical catalog order — the per-shard
  // cache keys of an incremental recompute.
  std::vector<std::pair<std::string, std::uint64_t>> shard_seeds;
  std::string fault_profile;     // "off" | "flaky" | "hostile"
  bool link_capacities = false;  // speed-test capacity provisioning on
  std::uint64_t payload_fingerprint = 0;  // fnv1a(serialized payload)

  // --- run: execution parameters ----------------------------------------
  std::size_t jobs = 0;
  int shard_attempts = 3;
  bool trace_enabled = false;

  // --- execution: process-isolation provenance --------------------------
  // How shards were executed ("in-process" | "isolated") and, for isolated
  // runs, what the supervisor observed: resume replays, crash-quarantined
  // providers, worker-process lifecycle counters, and the final per-slot
  // process snapshot. All telemetry except `mode`/`journal` (parameters).
  std::string execution_mode = "in-process";
  std::string journal_path;
  bool resumed = false;       // run started from --resume
  bool interrupted = false;   // SIGINT/SIGTERM cut the run short
  std::size_t resumed_shards = 0;
  std::vector<std::string> crash_quarantined_providers;
  std::size_t process_spawns = 0;
  std::size_t process_crashes = 0;
  std::size_t process_kills = 0;
  std::size_t process_timeouts = 0;
  std::vector<obs::ProcessStatus> processes;

  // --- cache: artifact-store provenance ---------------------------------
  // What the content-addressed store did for this run: the full per-shard
  // key ids (canonical catalog order) and hit/miss/corrupt provenance.
  // The keys are deterministic; the outcomes depend on prior store state.
  std::string cache_mode = "off";
  std::string cache_dir;
  std::uint32_t code_epoch = 0;
  std::uint64_t runner_options_fp = 0;
  core::CacheSummary cache;
  struct ShardCacheEntry {
    std::string provider;
    std::string key;      // 32-hex content address
    std::string outcome;  // "bypass" | "hit" | "miss" | "corrupt"
    bool stored = false;
    std::uint64_t bytes = 0;
  };
  std::vector<ShardCacheEntry> shard_cache;  // empty when cache off

  // --- build: toolchain provenance --------------------------------------
  std::string compiler;    // __VERSION__
  std::string build_type;  // "release" | "debug" (NDEBUG)

  // --- telemetry: how the run went (varies run to run) ------------------
  double wall_s = 0.0;
  double busy_wall_s = 0.0;
  std::uint64_t tasks_run = 0;
  std::uint64_t steals = 0;
  std::uint64_t retries = 0;
  std::size_t failed_shards = 0;
  std::size_t quarantined_shards = 0;
  std::size_t degraded_vantage_points = 0;
  std::vector<std::string> degraded_providers;
  std::vector<obs::WatchdogAlert> watchdog_alerts;
};

// Assembles the manifest for a finished run. `payload` must be the
// canonical serialization (analysis::serialize_campaign_payload) so the
// payload fingerprint matches what byte-identity comparisons use.
[[nodiscard]] RunManifest build_run_manifest(
    const core::CampaignOptions& options, const core::CampaignReport& report,
    std::string_view payload);

// JSON rendering (stable key order; the key section is deterministic byte
// for byte given equal inputs).
[[nodiscard]] std::string render_manifest_json(const RunManifest& manifest);

// Scaled-run manifest (full_campaign --scale writes it as
// scale_manifest.json): catalog/payload fingerprints plus the census
// cache's per-shard provenance — what the dirty-shard CI lane greps to
// prove a one-provider catalog delta recomputed exactly one shard.
[[nodiscard]] std::string render_scaled_manifest_json(
    const core::ScaledCampaignReport& report,
    const core::ScaledCampaignOptions& options);

}  // namespace vpna::analysis
