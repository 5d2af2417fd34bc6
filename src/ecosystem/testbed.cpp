#include "ecosystem/testbed.h"

#include <algorithm>
#include <set>

#include "ecosystem/capacity.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace vpna::ecosystem {

namespace {

// Deploys `selection` in order into a fresh world, aliases reseller vantage
// points and spawns the measurement VM. Reserves a host slot for each
// vantage point, the VM and `extra_hosts` more the caller spawns after, so
// the bulk deploy never rehashes the network's attachment indexes.
Testbed build(const std::vector<const EvaluatedProvider*>& selection,
              std::uint64_t seed,
              std::shared_ptr<const netsim::RoutingPlane> plane,
              std::size_t extra_hosts = 0,
              std::shared_ptr<const inet::WorldBase> base =
                  inet::WorldBase::shared()) {
  Testbed tb;
  tb.world =
      std::make_unique<inet::World>(seed, std::move(plane), std::move(base));
  tb.providers.reserve(selection.size());

  std::size_t expected_hosts = 1 + extra_hosts;
  for (const auto* ep : selection)
    expected_hosts += ep->spec.vantage_points.size();
  tb.world->reserve_hosts(expected_hosts);

  for (const auto* ep : selection)
    tb.providers.push_back(vpn::deploy_provider(*tb.world, ep->spec));

  alias_reseller_vantage_points(tb, selection);
  tb.client = &tb.world->spawn_client("Chicago", "measurement-vm");
  return tb;
}

}  // namespace

void alias_reseller_vantage_points(
    Testbed& tb, const std::vector<const EvaluatedProvider*>& selection) {
  for (const auto* ep : selection) {
    if (ep->shares_infrastructure_with.empty()) continue;
    vpn::DeployedProvider* target = nullptr;
    const vpn::DeployedProvider* partner = nullptr;
    for (auto& p : tb.providers) {
      if (p.spec.name == ep->spec.name) target = &p;
      if (p.spec.name == ep->shares_infrastructure_with) partner = &p;
    }
    if (target == nullptr || partner == nullptr) continue;
    const std::size_t count = std::min(ep->shared_vantage_ids.size(),
                                       partner->vantage_points.size());
    for (std::size_t k = 0; k < count; ++k) {
      vpn::DeployedVantagePoint alias = partner->vantage_points[k];
      alias.spec.id = ep->shared_vantage_ids[k];
      target->vantage_points.push_back(std::move(alias));
      target->spec.vantage_points.push_back(target->vantage_points.back().spec);
    }
  }
}

Testbed build_testbed(std::uint64_t seed,
                      std::shared_ptr<const netsim::RoutingPlane> plane) {
  std::vector<const EvaluatedProvider*> all;
  for (const auto& ep : evaluated_providers()) all.push_back(&ep);
  return build(all, seed, std::move(plane));
}

Testbed build_testbed_subset(const std::vector<std::string>& names,
                             std::uint64_t seed,
                             std::shared_ptr<const netsim::RoutingPlane> plane) {
  std::vector<const EvaluatedProvider*> selection;
  std::set<std::string> seen;
  for (const auto& name : names) {
    const auto* ep = evaluated_provider(name);
    if (ep != nullptr && seen.insert(ep->spec.name).second)
      selection.push_back(ep);
  }
  return build(selection, seed, std::move(plane));
}

Testbed build_catalog_shard(const std::vector<EvaluatedProvider>& catalog,
                            const EvaluatedProvider& target,
                            std::uint64_t seed,
                            std::shared_ptr<const netsim::RoutingPlane> plane,
                            std::size_t extra_hosts,
                            std::shared_ptr<const inet::WorldBase> base) {
  // Catalog-order selection of {target} ∪ {reseller partner}: the partner
  // must be deployed in the shard for vantage-point aliasing to resolve.
  std::vector<const EvaluatedProvider*> selection;
  for (const auto& ep : catalog) {
    if (ep.spec.name == target.spec.name ||
        (!target.shares_infrastructure_with.empty() &&
         ep.spec.name == target.shares_infrastructure_with))
      selection.push_back(&ep);
  }
  return build(selection, seed, std::move(plane), extra_hosts,
               std::move(base));
}

std::uint64_t shard_seed(std::uint64_t campaign_seed,
                         std::string_view provider_name) {
  // Same mixing discipline as Rng::fork: the derived seed depends only on
  // (campaign seed, provider name).
  return util::Rng(campaign_seed).fork(provider_name).seed();
}

Testbed build_provider_shard(std::string_view name, std::uint64_t campaign_seed,
                             std::shared_ptr<const netsim::RoutingPlane> plane,
                             faults::FaultProfile profile,
                             bool link_capacities,
                             std::shared_ptr<const inet::WorldBase> base) {
  const auto* target = evaluated_provider(name);
  if (target == nullptr) return {};
  obs::Span build_span("shard.build", "ecosystem");

  const auto seed = shard_seed(campaign_seed, target->spec.name);
  auto tb = build_catalog_shard(evaluated_providers(), *target, seed,
                                std::move(plane), 0, std::move(base));
  apply_fault_profile(tb, profile, seed);
  if (link_capacities) apply_link_capacities(tb, seed);
  return tb;
}

void apply_fault_profile(Testbed& tb, faults::FaultProfile profile,
                         std::uint64_t seed) {
  if (profile == faults::FaultProfile::kOff || !tb.world) return;

  faults::FaultTargets targets;
  auto& net = tb.world->network();
  targets.router_count = net.router_count();
  targets.links = net.link_pairs();
  for (const auto& provider : tb.providers)
    for (const auto& vp : provider.vantage_points)
      targets.vpn_gateways.push_back(vp.addr);
  targets.dns_servers = {tb.world->google_dns(), tb.world->quad9_dns(),
                         tb.world->isp_resolver()};

  // The plan seed forks off the shard seed with a fixed label, so the fault
  // schedule — like everything else in the shard — is a pure function of
  // (campaign seed, provider name), never of worker identity.
  auto plan = faults::FaultPlan::generate(
      profile, util::Rng(seed).fork("faults").seed(), targets);
  tb.fault_injector = std::make_shared<faults::Injector>(std::move(plan));
  net.set_fault_injector(tb.fault_injector);
}

std::shared_ptr<const netsim::RoutingPlane> shared_backbone_plane() {
  return inet::WorldBase::shared()->routing_plane();
}

}  // namespace vpna::ecosystem
