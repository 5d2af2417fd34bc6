// Host routing table: longest-prefix match over dual-family routes. This is
// what a VPN client manipulates when it connects (installing a default route
// through the tun device), and what the leakage tests ultimately audit.
//
// Lookup is a linear longest-prefix scan. A host table holds a handful of
// routes (default route, VPN server pin, tun default, split routes), where
// the inlined prefix compare costs about a nanosecond per route; an index
// would cost more to build on every add than it could save on lookup.
#pragma once

#include <optional>
#include <string>
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
  // Adds a route. Routes are not deduplicated; lookup prefers longest
  // prefix, then lowest metric, then insertion order.
  void add(Route route);

  // Removes all routes exactly matching the prefix + interface pair.
  // Returns the number removed.
  std::size_t remove(const Cidr& prefix, std::string_view interface_name);

  // Removes every route that egresses via the named interface.
  std::size_t remove_interface(std::string_view interface_name);

  // Longest-prefix-match lookup. Only routes whose family matches `dst`
  // are considered; among equal prefix lengths the lowest metric wins, then
  // the earliest added. Returns the route in place (valid until the next
  // add or remove), or nullptr when no route covers dst (no implicit
  // default route).
  [[nodiscard]] const Route* lookup(const IpAddr& dst) const;

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
  std::vector<Route> routes_;
  std::uint64_t generation_ = 0;
};

}  // namespace vpna::netsim
