#include "netsim/host.h"

#include <algorithm>
#include <cassert>
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
  if (!lazy_) lazy_ = std::make_unique<Lazy>();
  HostCache& cache = lazy_->host_cache;
  if (cache.config_generation_ != config_generation() ||
      cache.resolvers_ != dns_servers_) {
    cache.entries_.clear();
    cache.config_generation_ = config_generation();
    cache.resolvers_ = dns_servers_;
  }
  return cache;
}

Host::Lazy& Host::resolve() {
  if (!lazy_) lazy_ = std::make_unique<Lazy>();
  Lazy& lazy = *lazy_;
  const auto index_of = [this](std::string_view name) {
    const auto* iface = find_interface(name);
    return iface == nullptr
               ? kNoInterface
               : static_cast<std::uint16_t>(iface - interfaces_.data());
  };
  lazy.generation = config_generation();
  lazy.route_interface.clear();
  for (const auto& route : routes_.routes())
    lazy.route_interface.push_back(index_of(route.interface_name));
  lazy.tunnel_interface =
      has_tunnel_hook() ? index_of(tunnel_interface_) : kNoInterface;
  // Interface indices may have moved; interning again finds the same ids.
  lazy.capture_ids.assign(interfaces_.size(), kNoInterface);
  return lazy;
}

Host::Egress Host::egress(const Route& route) {
  const Lazy& lazy = resolved();
  const auto route_index =
      static_cast<std::size_t>(&route - routes_.routes().data());
  const std::uint16_t index = lazy.route_interface[route_index];
  const Egress out{index,
                   index != kNoInterface && index == lazy.tunnel_interface};
  // Debug: the index answers what a lookup by name would.
  assert(find_interface(route.interface_name) ==
         (index == kNoInterface ? nullptr : &interfaces_[index]));
  assert(out.tunnel ==
         (has_tunnel_hook() && out.interface != kNoInterface &&
          route.interface_name == tunnel_interface_));
  return out;
}

CaptureBuffer::InterfaceId Host::capture_id(std::uint16_t index) {
  std::uint16_t& slot = resolved().capture_ids[index];
  if (slot == kNoInterface) slot = capture_.intern(interfaces_[index].name);
  const auto id = static_cast<CaptureBuffer::InterfaceId>(slot);
  assert(capture_.interface_name(id) == interfaces_[index].name);
  return id;
}

CaptureBuffer::InterfaceId Host::capture_id_for(const IpAddr& addr) {
  for (std::size_t i = 0; i < interfaces_.size(); ++i)
    if (interfaces_[i].addr4 == addr || interfaces_[i].addr6 == addr)
      return capture_id(static_cast<std::uint16_t>(i));
  return capture_.intern("eth0");
}

std::uint16_t Host::next_ephemeral_port() noexcept {
  if (ephemeral_ == 0xffff) ephemeral_ = 49152;
  return ephemeral_++;
}

}  // namespace vpna::netsim
