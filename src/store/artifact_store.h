// Content-addressed artifact store: the on-disk cache behind incremental
// campaign recompute.
//
// An artifact is an opaque byte payload (a canonically-encoded shard
// report) filed under a ShardKey — the complete deterministic identity of
// the computation that produced it: code epoch, catalog-entry fingerprint,
// shard seed, fault profile, capacity profile, and the fingerprint of the
// runner options. Equal keys imply byte-identical payloads (the campaign
// engine's determinism contract), which is what makes replaying a cached
// artifact indistinguishable from recomputing the shard.
//
// Integrity is checked on every fetch: magic, header version, a full echo
// of the key (so a hash collision between two keys is detected rather than
// served), payload length, and an FNV-1a checksum of the payload bytes. A
// truncated or bit-flipped artifact comes back as FetchStatus::kCorrupt —
// callers log it and recompute; a corrupt artifact is never merged.
//
// Writes are atomic (unique temp file in the store directory, then
// rename), so a concurrent reader sees either the complete old bytes or
// the complete new bytes, never a torn write — safe for many campaign
// workers sharing one store, and for a crashed writer (the orphaned .tmp
// is ignored by fetches and overwritten by the next put).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace vpna::store {

// Operator-facing cache policy (`full_campaign --cache off|rw|ro`).
enum class CacheMode : std::uint8_t {
  kOff,        // never consult or write the store
  kReadWrite,  // consult; store misses; repair corrupt entries
  kReadOnly,   // consult; never write (shared/immutable store dirs)
};

[[nodiscard]] std::string_view cache_mode_name(CacheMode m) noexcept;
// Parses "off" | "rw" | "ro"; returns false for anything else.
[[nodiscard]] bool parse_cache_mode(std::string_view name,
                                    CacheMode* out) noexcept;

struct CacheConfig {
  std::string dir;  // store directory; empty = caching disabled
  CacheMode mode = CacheMode::kOff;

  [[nodiscard]] bool enabled() const noexcept {
    return mode != CacheMode::kOff && !dir.empty();
  }
  [[nodiscard]] bool writable() const noexcept {
    return mode == CacheMode::kReadWrite && !dir.empty();
  }
};

// The deterministic identity of one shard computation. Every field is an
// input the shard's payload bytes are a pure function of; two runs with
// equal keys produce byte-identical artifacts at any worker count.
struct ShardKey {
  // Build-stamped implementation version (store/code_epoch.h). Bumped
  // whenever payload-affecting logic changes; orphans all older artifacts.
  std::uint32_t code_epoch = 0;
  // Artifact payload format (the shard-report codec version). Kept in the
  // key so a codec change alone re-addresses artifacts.
  std::uint32_t payload_format = 0;
  // Fingerprint of the catalog entries this shard's world is built from
  // (the provider plus its reseller partner — not the whole catalog, so a
  // one-provider catalog edit dirties exactly the shards that read it).
  std::uint64_t catalog_fingerprint = 0;
  // ecosystem::shard_seed(campaign_seed, provider) — carries both the
  // campaign seed and the provider identity.
  std::uint64_t shard_seed = 0;
  // Fault profile name ("off" | "flaky" | "hostile").
  std::string fault_profile;
  // Capacity profile: whether link capacities were provisioned (the
  // speed-test plane). The only capacity knob campaigns expose today.
  bool link_capacities = false;
  // Fingerprint over every payload-affecting runner option
  // (core::runner_options_fingerprint).
  std::uint64_t runner_options_fingerprint = 0;

  // Canonical serialization of the key — what the content address hashes
  // and what the artifact header echoes for collision detection.
  [[nodiscard]] std::string canonical() const;

  // Content address: 32 hex chars (two independent 64-bit FNV-1a streams
  // over canonical()). Used as the artifact's file name.
  [[nodiscard]] std::string id() const;

  friend bool operator==(const ShardKey&, const ShardKey&) = default;
};

enum class FetchStatus : std::uint8_t {
  kHit,      // artifact present, integrity verified, payload returned
  kMiss,     // no artifact under this key
  kCorrupt,  // artifact present but failed an integrity check
};

struct FetchResult {
  FetchStatus status = FetchStatus::kMiss;
  std::string payload;  // filled only on kHit
  std::string detail;   // human-readable corruption reason on kCorrupt
};

class ArtifactStore {
 public:
  // kReadWrite creates the directory if needed; kReadOnly/kOff never
  // touch the filesystem on construction.
  explicit ArtifactStore(CacheConfig config);

  [[nodiscard]] const CacheConfig& config() const noexcept { return config_; }

  // Looks the key up and verifies integrity. In kReadWrite mode a corrupt
  // artifact is deleted so the recompute's put() can repair it; kReadOnly
  // leaves the bytes untouched. kOff always reports kMiss.
  [[nodiscard]] FetchResult fetch(const ShardKey& key) const;

  // Atomically files `payload` under `key`. Returns false when the store
  // is not writable (kOff/kReadOnly) or on I/O failure — callers treat
  // that as "ran uncached", never as an error.
  bool put(const ShardKey& key, std::string_view payload) const;

  // Evicts the artifact under `key` (kReadWrite only; no-op otherwise).
  // For artifacts that pass integrity but fail a caller-side decode — the
  // store can't judge payload semantics, so the caller asks for eviction.
  void discard(const ShardKey& key) const;

  // The artifact path a key maps to (diagnostics / --explain-cache).
  [[nodiscard]] std::string path_for(const ShardKey& key) const;

 private:
  CacheConfig config_;
};

}  // namespace vpna::store
