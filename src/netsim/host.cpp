#include "netsim/host.h"

#include <algorithm>
#include <stdexcept>

namespace vpna::netsim {

const HostCache::Entry* HostCache::find(std::string_view name,
                                        std::uint16_t type,
                                        util::SimTime now) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) return nullptr;
  const Entry& entry = it->second;
  return entry.type == type && now < entry.expires ? &entry : nullptr;
}

const HostCache::Entry& HostCache::put(std::string_view name, Entry entry) {
  return entries_.insert_or_assign(std::string(name), std::move(entry))
      .first->second;
}

Host::Host(std::string name) : name_(std::move(name)) {
  interfaces_.reserve(2);  // lo + eth0, what every attached host has
  interfaces_.push_back(
      Interface{"lo", IpAddr::v4(127, 0, 0, 1), std::nullopt, true});
}

Interface& Host::add_interface(std::string name, std::optional<IpAddr> addr4,
                               std::optional<IpAddr> addr6) {
  if (find_interface(name) != nullptr)
    throw std::invalid_argument("duplicate interface " + name);
  Interface iface;
  iface.name = std::move(name);
  iface.addr4 = addr4;
  iface.addr6 = addr6;
  interfaces_.push_back(std::move(iface));
  ++config_generation_;
  return interfaces_.back();
}

void Host::remove_interface(std::string_view name) {
  std::erase_if(interfaces_,
                [&](const Interface& i) { return i.name == name; });
  ++config_generation_;
  if (tunnel_interface_ == name) clear_tunnel_hook();
}

Interface* Host::find_interface(std::string_view name) noexcept {
  for (auto& i : interfaces_)
    if (i.name == name) return &i;
  return nullptr;
}

const Interface* Host::find_interface(std::string_view name) const noexcept {
  for (const auto& i : interfaces_)
    if (i.name == name) return &i;
  return nullptr;
}

std::optional<IpAddr> Host::primary_addr(IpFamily family) const {
  for (const auto& i : interfaces_) {
    if (!i.up || i.name == "lo") continue;
    if (family == IpFamily::kV4 && i.addr4) return i.addr4;
    if (family == IpFamily::kV6 && i.addr6) return i.addr6;
  }
  return std::nullopt;
}

void Host::bind_service(Proto proto, std::uint16_t port,
                        std::shared_ptr<Service> service) {
  const auto key = service_key(proto, port);
  const auto it = std::lower_bound(
      services_.begin(), services_.end(), key,
      [](const ServiceBinding& b, std::uint32_t k) { return b.key < k; });
  if (it != services_.end() && it->key == key) {
    it->service = std::move(service);
    return;
  }
  services_.insert(it, ServiceBinding{key, std::move(service)});
}

void Host::unbind_service(Proto proto, std::uint16_t port) {
  const auto key = service_key(proto, port);
  const auto it = std::lower_bound(
      services_.begin(), services_.end(), key,
      [](const ServiceBinding& b, std::uint32_t k) { return b.key < k; });
  if (it != services_.end() && it->key == key) services_.erase(it);
}

Service* Host::find_service(Proto proto, std::uint16_t port) const {
  const auto key = service_key(proto, port);
  const auto it = std::lower_bound(
      services_.begin(), services_.end(), key,
      [](const ServiceBinding& b, std::uint32_t k) { return b.key < k; });
  return it != services_.end() && it->key == key ? it->service.get() : nullptr;
}

void Host::set_tunnel_hook(std::string tun_interface, TunnelEncapHook hook) {
  tunnel_interface_ = std::move(tun_interface);
  tunnel_hook_ = std::move(hook);
  ++config_generation_;
}

void Host::clear_tunnel_hook() noexcept {
  tunnel_interface_.clear();
  tunnel_hook_ = nullptr;
  ++config_generation_;
}

HostCache& Host::host_cache() {
  if (!host_cache_) host_cache_ = std::make_unique<HostCache>();
  HostCache& cache = *host_cache_;
  if (cache.config_generation_ != config_generation() ||
      cache.resolvers_ != dns_servers_) {
    cache.entries_.clear();
    cache.config_generation_ = config_generation();
    cache.resolvers_ = dns_servers_;
  }
  return cache;
}

std::uint16_t Host::next_ephemeral_port() noexcept {
  if (ephemeral_ == 0xffff) ephemeral_ = 49152;
  return ephemeral_++;
}

}  // namespace vpna::netsim
