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
// The `run`, `execution`, `cache`, `build`, and `telemetry` sections are
// provenance: how the computation was executed (jobs, attempts, isolation,
// cache outcomes), by what toolchain, and how it went (wall stats, pool
// counters, degradation and watchdog summaries). Telemetry varies run to
// run by nature; nothing in it feeds the key.
//
// Both renderers read the campaign's options and its report
// (core::ExecutionReport and the campaign report deriving from it)
// directly, so the manifest says exactly what the report holds.
#pragma once

#include <string>
#include <string_view>

#include "core/parallel_campaign.h"

namespace vpna::analysis {

// The paper campaign's manifest (full_campaign writes it as
// run_manifest.json): the key section — catalog fingerprint, campaign
// seed, fault/capacity profile, payload fingerprint and the per-provider
// shard seeds in canonical catalog order (the per-shard cache keys of an
// incremental recompute) — then the execution sections. `payload` must be
// the canonical serialization (analysis::serialize_campaign_payload) so the
// payload fingerprint matches what byte-identity comparisons use. Stable
// key order; the key section is deterministic byte for byte given equal
// inputs.
[[nodiscard]] std::string render_manifest_json(
    const core::CampaignOptions& options, const core::CampaignReport& report,
    std::string_view payload);

// Scaled-run manifest (full_campaign --scale writes it as
// scale_manifest.json): the census key (catalog/payload fingerprints, seed,
// max_clients), then the same run, execution, cache, build and telemetry
// sections as render_manifest_json. The cache section's per-shard
// provenance is what the dirty-shard CI lane greps to prove a one-provider
// catalog delta recomputed exactly one shard.
[[nodiscard]] std::string render_scaled_manifest_json(
    const core::ScaledCampaignReport& report,
    const core::ScaledCampaignOptions& options);

}  // namespace vpna::analysis
