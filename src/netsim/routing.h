// Host routing table: longest-prefix match over dual-family routes. This is
// what a VPN client manipulates when it connects (installing a default route
// through the tun device), and what the leakage tests ultimately audit.
//
// Lookup is served by a longest-prefix-match index: routes are bucketed by
// (family, prefix length) with each bucket keyed on the masked network
// address, and lookup probes buckets longest-first — so the per-packet cost
// scales with the number of distinct prefix lengths (a handful), not the
// number of routes. Tables at or below kLinearScanThreshold routes skip the
// index and scan directly (cheaper than hashing for the typical host
// table). The linear scan survives as `lookup_naive`, the oracle the
// randomized tests compare against.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "netsim/ip.h"

namespace vpna::netsim {

struct Route {
  Cidr prefix;                 // destination prefix
  std::string interface_name;  // egress interface ("eth0", "tun0", ...)
  std::optional<IpAddr> gateway;
  int metric = 0;  // lower wins among equal prefix lengths
};

class RouteTable {
 public:
  // Below this size lookup() scans linearly instead of probing the index.
  // The inlined prefix compare puts the scan near 1 ns/route, while each
  // bucket probe pays a hash + map find (~50 ns), so the crossover sits
  // around a couple hundred routes; see bench_routing.
  static constexpr std::size_t kLinearScanThreshold = 256;

  // Adds a route. Routes are not deduplicated; lookup prefers longest
  // prefix, then lowest metric, then insertion order.
  void add(Route route);

  // Removes all routes exactly matching the prefix + interface pair.
  // Returns the number removed.
  std::size_t remove(const Cidr& prefix, std::string_view interface_name);

  // Removes every route that egresses via the named interface.
  std::size_t remove_interface(std::string_view interface_name);

  // Longest-prefix-match lookup. Only routes whose family matches `dst`
  // are considered. Returns nullopt when no route covers dst (no implicit
  // default route).
  [[nodiscard]] std::optional<Route> lookup(const IpAddr& dst) const;

  // Reference implementation of lookup (linear best-match scan). Same
  // result as lookup() by construction; kept as the test oracle and the
  // bench baseline.
  [[nodiscard]] std::optional<Route> lookup_naive(const IpAddr& dst) const;

  [[nodiscard]] const std::vector<Route>& routes() const noexcept {
    return routes_;
  }

  // Counts add/remove calls: any change to the table changes it.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }

  // Human-readable dump, one route per line (used by the metadata
  // collection test, mirroring `netstat -rn`).
  [[nodiscard]] std::string dump() const;

 private:
  // One bucket per (family, prefix length) that has at least one route.
  // `nets` maps the masked network address to the indices (into routes_,
  // ascending = insertion order) of the routes with that exact prefix.
  struct Bucket {
    int prefix_len = 0;
    std::unordered_map<IpAddr, std::vector<std::uint32_t>> nets;
  };

  void index_route(std::uint32_t idx);
  void rebuild_index();
  [[nodiscard]] const std::vector<Bucket>& buckets_for(
      IpFamily family) const noexcept {
    return family == IpFamily::kV4 ? buckets4_ : buckets6_;
  }

  std::vector<Route> routes_;
  std::uint64_t generation_ = 0;
  // Sorted descending by prefix_len so lookup probes longest-first.
  std::vector<Bucket> buckets4_;
  std::vector<Bucket> buckets6_;
};

}  // namespace vpna::netsim
