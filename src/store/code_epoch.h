// The code epoch: a build-stamped constant folded into every artifact
// cache key.
//
// Caching a shard report is sound because a shard is a pure function of
// its key — (code epoch, catalog entry fingerprint, shard seed, fault
// profile, capacity profile, runner-options fingerprint). The first field
// is the one the machine cannot derive: *which implementation* of that
// pure function produced the artifact. Any change that can alter a shard
// report's bytes — runner logic, protocol behaviour, fault plans, catalog
// construction, the report codec itself — MUST bump kCodeEpoch, which
// cleanly orphans every artifact written by older code (they simply stop
// being addressed; no migration, no invalidation scan).
//
// Policy:
//  - Bump on any payload-affecting change, however small. When in doubt,
//    bump: a stale hit is a silent wrong answer, a spurious miss is one
//    recompute.
//  - Never bump for telemetry-only changes (tracing, status, profiling,
//    manifest provenance) — those are quarantined from the payload by the
//    determinism contract and its byte-identity tests.
//  - The shard-report codec carries its own format version
//    (core::kShardReportFormatVersion) checked at decode time, so a codec
//    change is caught even if an epoch bump is forgotten — it surfaces as
//    a decode failure (treated as a miss), never as a wrong payload.
#pragma once

#include <cstdint>

namespace vpna::store {

inline constexpr std::uint32_t kCodeEpoch = 4;

}  // namespace vpna::store
