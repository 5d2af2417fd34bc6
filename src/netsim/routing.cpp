#include "netsim/routing.h"

#include "util/strings.h"

namespace vpna::netsim {

void RouteTable::add(Route route) {
  ++generation_;
  routes_.push_back(std::move(route));
}

std::size_t RouteTable::remove(const Cidr& prefix,
                               std::string_view interface_name) {
  ++generation_;
  const auto before = routes_.size();
  std::erase_if(routes_, [&](const Route& r) {
    return r.prefix == prefix && r.interface_name == interface_name;
  });
  return before - routes_.size();
}

std::size_t RouteTable::remove_interface(std::string_view interface_name) {
  ++generation_;
  const auto before = routes_.size();
  std::erase_if(routes_, [&](const Route& r) {
    return r.interface_name == interface_name;
  });
  return before - routes_.size();
}

const Route* RouteTable::lookup(const IpAddr& dst) const {
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
  return best;
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
