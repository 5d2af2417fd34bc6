#include "netsim/routing.h"

#include <algorithm>

#include "util/strings.h"

namespace vpna::netsim {

void RouteTable::index_route(std::uint32_t idx) {
  const Route& route = routes_[idx];
  auto& buckets =
      route.prefix.family() == IpFamily::kV4 ? buckets4_ : buckets6_;
  // Keep buckets sorted descending by prefix length (longest-first probe
  // order). The bucket count is tiny — a host table has a handful of
  // distinct prefix lengths — so a linear insertion is fine.
  auto it = std::find_if(buckets.begin(), buckets.end(), [&](const Bucket& b) {
    return b.prefix_len <= route.prefix.prefix_len();
  });
  if (it == buckets.end() || it->prefix_len != route.prefix.prefix_len())
    it = buckets.insert(it, Bucket{route.prefix.prefix_len(), {}});
  // idx is the largest index so far (add()) or appended in ascending order
  // (rebuild_index()), so push_back keeps the per-net list ascending —
  // which is what makes "insertion order" the final tie-break.
  it->nets[route.prefix.network()].push_back(idx);
}

void RouteTable::rebuild_index() {
  buckets4_.clear();
  buckets6_.clear();
  for (std::uint32_t i = 0; i < routes_.size(); ++i) index_route(i);
}

void RouteTable::add(Route route) {
  ++generation_;
  routes_.push_back(std::move(route));
  index_route(static_cast<std::uint32_t>(routes_.size() - 1));
}

std::size_t RouteTable::remove(const Cidr& prefix,
                               std::string_view interface_name) {
  ++generation_;
  const auto before = routes_.size();
  std::erase_if(routes_, [&](const Route& r) {
    return r.prefix == prefix && r.interface_name == interface_name;
  });
  if (routes_.size() != before) rebuild_index();
  return before - routes_.size();
}

std::size_t RouteTable::remove_interface(std::string_view interface_name) {
  ++generation_;
  const auto before = routes_.size();
  std::erase_if(routes_, [&](const Route& r) {
    return r.interface_name == interface_name;
  });
  if (routes_.size() != before) rebuild_index();
  return before - routes_.size();
}

std::optional<Route> RouteTable::lookup(const IpAddr& dst) const {
  // Hybrid: a handful of routes (the typical host table — default route,
  // VPN pin, tun default) is faster to scan than to hash; the index wins
  // once the table outgrows a cache line or two.
  if (routes_.size() <= kLinearScanThreshold) return lookup_naive(dst);
  for (const Bucket& bucket : buckets_for(dst.family())) {
    const auto it = bucket.nets.find(dst.masked(bucket.prefix_len));
    if (it == bucket.nets.end()) continue;
    // Same prefix length and network: lowest metric wins, then insertion
    // order (indices are ascending, strict < keeps the earliest).
    const Route* best = nullptr;
    for (const std::uint32_t idx : it->second) {
      const Route& r = routes_[idx];
      if (best == nullptr || r.metric < best->metric) best = &r;
    }
    return *best;
  }
  return std::nullopt;
}

std::optional<Route> RouteTable::lookup_naive(const IpAddr& dst) const {
  const Route* best = nullptr;
  for (const auto& r : routes_) {
    if (r.prefix.family() != dst.family()) continue;
    if (!r.prefix.contains(dst)) continue;
    if (best == nullptr || r.prefix.prefix_len() > best->prefix.prefix_len() ||
        (r.prefix.prefix_len() == best->prefix.prefix_len() &&
         r.metric < best->metric)) {
      best = &r;
    }
  }
  if (best == nullptr) return std::nullopt;
  return *best;
}

std::string RouteTable::dump() const {
  std::string out;
  for (const auto& r : routes_) {
    out += util::format("%-24s dev %-6s", r.prefix.str().c_str(),
                        r.interface_name.c_str());
    if (r.gateway) out += util::format(" via %s", r.gateway->str().c_str());
    if (r.metric != 0) out += util::format(" metric %d", r.metric);
    out += '\n';
  }
  return out;
}

}  // namespace vpna::netsim
