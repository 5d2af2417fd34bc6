// Internet-scale synthetic catalog: extrapolates the empirical
// distributions of the 62 evaluated providers (fleet sizes, subscription
// mix, client model, behaviour-flag rates, city/datacenter spread, virtual
// placement and reseller aliasing) to O(10³) providers with O(10⁴–10⁶)
// modeled subscribers — the "what would this census look like at ecosystem
// scale" extrapolation the paper's 200-provider marketing catalog hints at.
//
// Everything here is a pure function of (n_providers,
// subscribers_per_provider, seed): the generated catalog, its fingerprint,
// and every shard built from it are byte-identical across runs, worker
// counts and materialization modes. Subscribers are *modeled* as counts in
// the catalog; shard builds materialize at most a capped number of eyeball
// clients per provider (ScaledShardOptions::max_clients), which is what
// keeps million-subscriber catalogs buildable.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "ecosystem/evaluated.h"
#include "ecosystem/testbed.h"

namespace vpna::ecosystem {

struct ScaledCatalog {
  std::uint64_t seed = 0;
  std::uint32_t subscribers_per_provider = 0;
  // Catalog order — the canonical shard/merge order, exactly like
  // evaluated_providers() is for the base catalog.
  std::vector<EvaluatedProvider> providers;
  // Modeled subscriber count per provider (parallel to `providers`);
  // heavy-tailed around subscribers_per_provider, as VPN market share is.
  std::vector<std::uint32_t> subscribers;

  [[nodiscard]] const EvaluatedProvider* provider(std::string_view name) const;
  [[nodiscard]] std::size_t total_vantage_points() const;
  [[nodiscard]] std::uint64_t total_subscribers() const;

  // Canonical fingerprint: the shared catalog_fingerprint() serialization
  // over `providers`, folded with the seed and the subscriber counts. Any
  // change to (n, subscribers, seed) — or to the generator itself — moves it.
  [[nodiscard]] std::uint64_t fingerprint() const;

  // Per-provider cache-key fingerprint: the provider's entry (plus its
  // reseller partner's, when present) through the shared slice
  // serialization, folded with the provider's own modeled subscriber count
  // — everything build_scaled_shard and the census read for this shard.
  // Deliberately independent of catalog size: growing an N-provider
  // catalog to N+1 leaves the first N fingerprints (and their cached
  // artifacts) untouched, because each provider's generator stream forks
  // from (seed, name) alone. Returns 0 for unknown names.
  [[nodiscard]] std::uint64_t provider_fingerprint(std::string_view name) const;
};

// Generates `n_providers` synthetic providers, deterministically in
// (n_providers, subscribers_per_provider, seed). Each provider forks its
// own rng stream from (seed, name), so provider i's spec never depends on
// how many other providers were generated around it.
[[nodiscard]] ScaledCatalog generate_scaled_catalog(
    std::size_t n_providers, std::uint32_t subscribers_per_provider,
    std::uint64_t seed);

struct ScaledShardOptions {
  // Materialization cap: at most this many eyeball clients are spawned per
  // shard regardless of the provider's modeled subscriber count. The
  // remaining subscribers stay modeled (counts in the census), which is
  // what bounds shard worlds at million-subscriber catalog scale.
  std::uint32_t max_clients = 4;
};

// Scaled counterpart of build_provider_shard: a fresh world seeded with
// shard_seed(campaign_seed, name) holding the named provider, its reseller
// partner when it has one (so aliasing resolves exactly as in the base
// catalog), the measurement client, and up to max_clients subscriber
// eyeballs placed in deterministically sampled cities. Returns an empty
// testbed (no world) for names not in `catalog`.
[[nodiscard]] Testbed build_scaled_shard(
    const ScaledCatalog& catalog, std::string_view name,
    std::uint64_t campaign_seed,
    std::shared_ptr<const netsim::RoutingPlane> plane = nullptr,
    const ScaledShardOptions& options = {});

}  // namespace vpna::ecosystem
