// A simulated end host: named interfaces with IPv4/IPv6 addresses, a routing
// table, a firewall, OS DNS-resolver configuration, bound services, and a
// packet-capture buffer. VPN clients manipulate exactly this state (routes,
// DNS servers, tun interface, firewall rules), and the measurement suite
// audits it — mirroring how the paper's tests observe a macOS VM.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "netsim/capture.h"
#include "netsim/firewall.h"
#include "netsim/packet.h"
#include "netsim/routing.h"
#include "util/clock.h"
#include "util/strings.h"

namespace vpna::netsim {

class Host;
class Network;

// Context handed to a service handler. Services that forward traffic (the
// VPN server's tunnel endpoint, proxies) use `network` to issue their own
// transactions synchronously.
struct ServiceContext {
  Network& network;
  Host& host;          // the host the service is bound on
  // The delivered packet. The handler owns its payload and may move from
  // it; once the handler returns, the network reads only header fields.
  Packet& request;
};

// A protocol endpoint bound to (proto, port) on a host. Returning nullopt
// means "no response" (the caller observes a timeout).
class Service {
 public:
  virtual ~Service() = default;
  virtual std::optional<std::string> handle(ServiceContext& ctx) = 0;
};

// Adapter for lambda services.
class LambdaService final : public Service {
 public:
  using Fn = std::function<std::optional<std::string>(ServiceContext&)>;
  explicit LambdaService(Fn fn) : fn_(std::move(fn)) {}
  std::optional<std::string> handle(ServiceContext& ctx) override {
    return fn_(ctx);
  }

 private:
  Fn fn_;
};

struct Interface {
  std::string name;
  std::optional<IpAddr> addr4;
  std::optional<IpAddr> addr6;
  bool up = true;
};

// Hook invoked when a packet is routed out through an interface that has a
// tunnel attached (the VPN client data path). The hook consumes the inner
// packet and either returns the encapsulated outer packet to send via the
// physical interface, or nullopt to drop it (e.g. tunnel down and failing
// closed).
using TunnelEncapHook = std::function<std::optional<Packet>(Packet&& inner)>;

// The browser's host cache (Chrome's HostCache): addresses the system
// resolver returned, by name, each kept until `expires` in sim time. An
// entry answers only lookups of its own record type; a name holds one type
// at a time (browsing asks for A only). Host::host_cache() empties it
// before handing it out whenever the host's resolvers, routes, interfaces
// or tunnel changed since its last use, so no caller ever flushes it.
// dns::resolve_browser reads and writes it; nothing else does.
class HostCache {
 public:
  struct Entry {
    std::uint16_t type = 0;  // the record type answered
    std::vector<IpAddr> addresses;
    IpAddr server;  // the resolver that answered
    util::SimTime expires;
  };

  // The entry for (name, type), or null when absent or expired at `now`.
  [[nodiscard]] const Entry* find(std::string_view name, std::uint16_t type,
                                  util::SimTime now) const;
  // Stores `entry` for `name`, replacing any older one; returns it.
  const Entry& put(std::string_view name, Entry entry);
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  friend class Host;
  // Hashed by name (never iterated): a lookup hashes the view it is given.
  std::unordered_map<std::string, Entry, util::StringHash, std::equal_to<>>
      entries_;
  // The host configuration the entries were resolved under.
  std::uint64_t config_generation_ = 0;
  std::vector<IpAddr> resolvers_;
};

class Host {
 public:
  // Creates a host with a loopback interface only; add interfaces before
  // attaching to a network.
  explicit Host(std::string name);

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  // --- interfaces ---------------------------------------------------------
  Interface& add_interface(std::string name, std::optional<IpAddr> addr4,
                           std::optional<IpAddr> addr6 = std::nullopt);
  void remove_interface(std::string_view name);
  [[nodiscard]] Interface* find_interface(std::string_view name) noexcept;
  [[nodiscard]] const Interface* find_interface(std::string_view name) const noexcept;
  [[nodiscard]] const std::vector<Interface>& interfaces() const noexcept {
    return interfaces_;
  }

  // First global address of the given family across all up interfaces.
  [[nodiscard]] std::optional<IpAddr> primary_addr(IpFamily family) const;

  // --- routing / firewall / DNS -------------------------------------------
  [[nodiscard]] RouteTable& routes() noexcept { return routes_; }
  [[nodiscard]] const RouteTable& routes() const noexcept { return routes_; }
  [[nodiscard]] Firewall& firewall() noexcept { return firewall_; }
  [[nodiscard]] const Firewall& firewall() const noexcept { return firewall_; }

  [[nodiscard]] std::vector<IpAddr>& dns_servers() noexcept {
    return dns_servers_;
  }
  [[nodiscard]] const std::vector<IpAddr>& dns_servers() const noexcept {
    return dns_servers_;
  }

  // --- services ------------------------------------------------------------
  // Binds a service to (proto, port); replaces any existing binding.
  void bind_service(Proto proto, std::uint16_t port,
                    std::shared_ptr<Service> service);
  void unbind_service(Proto proto, std::uint16_t port);
  [[nodiscard]] Service* find_service(Proto proto, std::uint16_t port) const;
  [[nodiscard]] std::size_t service_count() const noexcept {
    return services_.size();
  }

  // --- tunnel hook -----------------------------------------------------------
  // Attaches/detaches the encapsulation hook for a tun interface.
  void set_tunnel_hook(std::string tun_interface, TunnelEncapHook hook);
  void clear_tunnel_hook() noexcept;
  [[nodiscard]] bool has_tunnel_hook() const noexcept {
    return static_cast<bool>(tunnel_hook_);
  }
  [[nodiscard]] const std::string& tunnel_interface() const noexcept {
    return tunnel_interface_;
  }
  [[nodiscard]] const TunnelEncapHook& tunnel_hook() const noexcept {
    return tunnel_hook_;
  }

  // --- capture --------------------------------------------------------------
  [[nodiscard]] CaptureBuffer& capture() noexcept { return capture_; }
  [[nodiscard]] const CaptureBuffer& capture() const noexcept {
    return capture_;
  }

  // --- browser host cache ----------------------------------------------------
  // Changes whenever an interface, a route or the tunnel hook does.
  [[nodiscard]] std::uint64_t config_generation() const noexcept {
    return config_generation_ + routes_.generation();
  }
  // This host's browser cache, created on first use and emptied first if
  // the resolver list or config_generation() moved since it was filled.
  [[nodiscard]] HostCache& host_cache();

  // Next ephemeral source port (wraps within the dynamic range).
  [[nodiscard]] std::uint16_t next_ephemeral_port() noexcept;

 private:
  // Service bindings as a flat vector sorted by packed (proto, port) key —
  // hosts bind a handful of services, so a cache-line binary search beats a
  // node-based map on every delivered packet, and per-host service storage
  // is one contiguous allocation instead of a node per binding.
  struct ServiceBinding {
    std::uint32_t key;  // (proto << 16) | port
    std::shared_ptr<Service> service;
  };
  static constexpr std::uint32_t service_key(Proto proto,
                                             std::uint16_t port) noexcept {
    return (static_cast<std::uint32_t>(proto) << 16) | port;
  }

  std::string name_;
  std::vector<Interface> interfaces_;
  RouteTable routes_;
  Firewall firewall_;
  std::vector<IpAddr> dns_servers_;
  std::vector<ServiceBinding> services_;
  std::string tunnel_interface_;
  TunnelEncapHook tunnel_hook_;
  CaptureBuffer capture_;
  std::uint64_t config_generation_ = 0;
  // Only browsing hosts ever hold one.
  std::unique_ptr<HostCache> host_cache_;
  // Where Network::attach_host put this host: the network and the slot in
  // its attachment table (null network = not attached).
  friend class Network;
  const Network* network_ = nullptr;
  std::size_t attachment_slot_ = 0;
  std::uint16_t ephemeral_ = 49152;
};

}  // namespace vpna::netsim
