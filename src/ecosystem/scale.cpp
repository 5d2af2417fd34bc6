#include "ecosystem/scale.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "geo/cities.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/strings.h"

namespace vpna::ecosystem {

namespace {

// The reseller-aliasing rate the base catalog exhibits: one pair
// (Anonine/Boxpn) among 62 providers. Applied deterministically by index so
// the pairing never depends on rng consumption order.
constexpr std::size_t kResellerPeriod = 62;
constexpr std::size_t kResellerOffset = 13;  // arbitrary fixed slot, > 0

// Every vantage point of the base catalog, flattened: sampling from this
// pool reproduces the evaluated providers' city/country spread, the
// shared-facility fraction (datacenter_id set vs provider-private), the
// virtual-placement rate (advertised != physical, dominated by HideMyAss's
// fleet exactly as in the paper) and the regional reliability mix — all as
// joint empirical frequencies, not as independently fitted knobs.
const std::vector<const vpn::VantagePointSpec*>& placement_pool() {
  static const std::vector<const vpn::VantagePointSpec*> pool = [] {
    std::vector<const vpn::VantagePointSpec*> out;
    for (const auto& ep : evaluated_providers())
      for (const auto& vp : ep.spec.vantage_points) out.push_back(&vp);
    return out;
  }();
  return pool;
}

}  // namespace

const EvaluatedProvider* ScaledCatalog::provider(std::string_view name) const {
  for (const auto& p : providers)
    if (p.spec.name == name) return &p;
  return nullptr;
}

std::size_t ScaledCatalog::total_vantage_points() const {
  std::size_t n = 0;
  for (const auto& p : providers) n += p.spec.vantage_points.size();
  return n;
}

std::uint64_t ScaledCatalog::total_subscribers() const {
  std::uint64_t n = 0;
  for (const auto s : subscribers) n += s;
  return n;
}

std::uint64_t ScaledCatalog::fingerprint() const {
  // Fold the provider-list fingerprint (shared canonical form with the base
  // catalog) with the generation seed and the modeled subscriber counts.
  std::string canon = util::format(
      "%016llx|%016llx|%u",
      static_cast<unsigned long long>(catalog_fingerprint(providers)),
      static_cast<unsigned long long>(seed), subscribers_per_provider);
  for (const auto s : subscribers) canon += util::format("|%u", s);
  return util::fnv1a(canon);
}

std::uint64_t ScaledCatalog::provider_fingerprint(std::string_view name) const {
  const std::uint64_t slice = provider_catalog_fingerprint(providers, name);
  if (slice == 0) return 0;
  std::uint32_t modeled = 0;
  for (std::size_t i = 0; i < providers.size(); ++i)
    if (providers[i].spec.name == name) modeled = subscribers[i];
  return util::fnv1a(util::format(
      "vpna-scaled-provider-v1|%016llx|%u",
      static_cast<unsigned long long>(slice), modeled));
}

ScaledCatalog generate_scaled_catalog(std::size_t n_providers,
                                      std::uint32_t subscribers_per_provider,
                                      std::uint64_t seed) {
  const auto& base = evaluated_providers();
  const auto& pool = placement_pool();

  ScaledCatalog cat;
  cat.seed = seed;
  cat.subscribers_per_provider = subscribers_per_provider;
  cat.providers.reserve(n_providers);
  cat.subscribers.reserve(n_providers);

  for (std::size_t i = 0; i < n_providers; ++i) {
    // Zero-padded names keep catalog order == lexicographic order, the
    // same canonical-order convention the merge path relies on.
    std::string name = util::format("svp-%05zu", i);
    auto rng = util::Rng(seed).fork(name);

    // Sample a base provider as the behavioural template. Copying its
    // subscription, client model, behaviour flags, protocol set and fleet
    // size wholesale preserves the joint distribution — e.g. the paper's
    // correlation between config-file providers and 30-server fleets, or
    // between trial tiers and content injection — which per-flag Bernoulli
    // draws would destroy.
    const auto& tmpl = base[rng.index(base.size())];

    EvaluatedProvider ep;
    ep.spec.name = name;
    ep.spec.subscription = tmpl.spec.subscription;
    ep.subscription = tmpl.subscription;
    ep.spec.protocols = tmpl.spec.protocols;
    ep.spec.has_custom_client = tmpl.spec.has_custom_client;
    ep.spec.behavior = tmpl.spec.behavior;

    // Fleet: the template's vantage-point count, each slot drawn from the
    // empirical placement pool. Ids follow the base catalog's per-country
    // numbering scheme.
    const std::size_t vp_count = tmpl.spec.vantage_points.size();
    ep.spec.vantage_points.reserve(vp_count);
    std::map<std::string, int> country_counters;
    for (std::size_t k = 0; k < vp_count; ++k) {
      vpn::VantagePointSpec vp = *pool[rng.index(pool.size())];
      const auto cc = util::to_lower(vp.advertised_country);
      vp.id = util::format("%s-%d", cc.c_str(), ++country_counters[cc]);
      ep.spec.vantage_points.push_back(std::move(vp));
    }

    // Reseller aliasing at the base catalog's empirical rate (1 pair per
    // 62): provider i resells the catalog predecessor. The offset slot
    // guarantees the partner exists and is never itself a reseller, so
    // chains cannot form and every shard deploys at most two providers.
    if (i % kResellerPeriod == kResellerOffset && i > 0) {
      ep.shares_infrastructure_with = cat.providers[i - 1].spec.name;
      ep.shared_vantage_ids = {"shared-1", "shared-2", "shared-3", "shared-4"};
    }

    // Modeled subscribers: lognormal around the requested mean — market
    // share in the VPN ecosystem is heavy-tailed (a few household names,
    // a long tail of small operators).
    const double factor = std::exp(rng.normal(0.0, 0.75));
    const double drawn = subscribers_per_provider * factor;
    cat.subscribers.push_back(static_cast<std::uint32_t>(
        std::max(1.0, std::min(drawn, 4.0e9))));
    cat.providers.push_back(std::move(ep));
  }
  return cat;
}

Testbed build_scaled_shard(const ScaledCatalog& catalog, std::string_view name,
                           std::uint64_t campaign_seed,
                           std::shared_ptr<const netsim::RoutingPlane> plane,
                           const ScaledShardOptions& options) {
  const auto* target = catalog.provider(name);
  if (target == nullptr) return {};
  obs::Span build_span("shard.build", "ecosystem");

  const auto seed = shard_seed(campaign_seed, target->spec.name);
  const auto modeled = catalog.subscribers[static_cast<std::size_t>(
      target - catalog.providers.data())];
  const std::uint32_t clients =
      std::min<std::uint32_t>(options.max_clients, modeled);
  auto tb = build_catalog_shard(catalog.providers, *target, seed,
                                std::move(plane), clients);

  // Capped subscriber materialization: eyeball clients in cities sampled
  // from a dedicated rng stream (fork order is fixed, so the city list is a
  // pure function of the shard seed, independent of anything spawned above).
  auto sub_rng = util::Rng(seed).fork("subscribers");
  const auto all_cities = geo::cities();
  for (std::uint32_t k = 0; k < clients; ++k) {
    const auto& city = all_cities[sub_rng.index(all_cities.size())];
    (void)tb.world->spawn_client(city.name,
                                 util::format("subscriber-%u", k + 1));
  }

  return tb;
}

}  // namespace vpna::ecosystem
