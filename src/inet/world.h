// The simulated Internet: backbone topology over real cities, hosting
// datacenters with address pools and WHOIS/geo registrations, the public
// DNS ecosystem (anycast resolvers, roots, zone authorities, a logging
// probe zone), the measurement-target web, RIPE-Atlas-style anchors, and
// per-country censorship. Everything the paper's test suite touches that is
// not the VPN itself lives here.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dns/server.h"
#include "geo/cities.h"
#include "geo/geodb.h"
#include "http/server.h"
#include "inet/censor.h"
#include "inet/sites.h"
#include "inet/whois.h"
#include "inet/world_base.h"
#include "netsim/network.h"
#include "tlssim/cert.h"
#include "tlssim/handshake.h"
#include "util/arena.h"
#include "util/clock.h"
#include "util/rng.h"

namespace vpna::inet {

class World {
 public:
  // Every world builds on `base` — the seed-independent fabric, host layout
  // and web content (see world_base.h) — and owns everything else.
  // The network routes on `shared_plane` when given, on the base's
  // routing_plane() otherwise; either way no world runs its own all-pairs
  // sweep. A plane not built over the base's fabric throws
  // std::logic_error.
  explicit World(std::uint64_t seed,
                 std::shared_ptr<const netsim::RoutingPlane> shared_plane =
                     nullptr,
                 std::shared_ptr<const WorldBase> base = WorldBase::shared());

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  // --- fabric ---------------------------------------------------------------
  [[nodiscard]] netsim::Network& network() noexcept { return *network_; }
  [[nodiscard]] util::SimClock& clock() noexcept { return clock_; }
  [[nodiscard]] util::Rng& rng() noexcept { return rng_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  // Router serving a city (throws for unknown city names).
  [[nodiscard]] netsim::RouterId router_for_city(std::string_view city) const;

  // --- hosting --------------------------------------------------------------
  [[nodiscard]] std::vector<Datacenter>& datacenters() noexcept {
    return datacenters_;
  }
  [[nodiscard]] Datacenter* datacenter_by_id(std::string_view id);

  // A tenant-private facility: a dedicated /24 rented by `tenant` in
  // `city`, created on first use and cached. This is how most vantage
  // points are hosted in practice — which is why the paper's census sees
  // hundreds of distinct CIDRs, with sharing concentrated in a handful of
  // budget facilities.
  Datacenter& private_datacenter(std::string_view tenant,
                                 std::string_view city);

  // Creates a server host in a datacenter: allocates an address from the
  // pool, attaches it at the datacenter's router, installs a default route.
  // `tenant` selects the addressing policy: non-empty tenants in large
  // pools receive addresses inside their own /24 slice; small pools and
  // anonymous spawns allocate from shared space.
  netsim::Host& spawn_server(Datacenter& dc, std::string name,
                             bool with_v6 = false, std::string_view tenant = {});

  // Creates an eyeball client behind a residential access network in a
  // city, with IPv4+IPv6, default routes and the ISP's resolver configured.
  // The residential pool (71.80.0.10 - 71.80.255.255) holds 65,526
  // clients; spawning past it throws std::logic_error.
  netsim::Host& spawn_client(std::string_view city, std::string name);

  // Capacity hint: a caller that knows how many hosts it is about to spawn
  // (shard builds and the scaled generator do) pre-sizes the host arena and
  // the network's attachment indexes in one step.
  void reserve_hosts(std::size_t extra_hosts);
  [[nodiscard]] std::size_t host_count() const noexcept { return host_count_; }
  // Arena bytes backing host objects (reserved from the system / handed out).
  [[nodiscard]] std::size_t host_arena_reserved_bytes() const noexcept {
    return host_arena_.bytes_reserved();
  }
  [[nodiscard]] std::size_t host_arena_used_bytes() const noexcept {
    return host_arena_.bytes_allocated();
  }

  // --- addressing / registries ---------------------------------------------
  [[nodiscard]] WhoisDb& whois() noexcept { return whois_; }
  [[nodiscard]] std::shared_ptr<geo::AllocationRegistry> geo_registry() {
    return geo_registry_;
  }
  // Registers a sub-block's geo data, optionally spoofing the registered
  // location (virtual vantage points do this).
  void register_geo(const netsim::Cidr& block, const geo::City& true_city,
                    const geo::City& registered_city);

  // The three geolocation databases built over this world's registry.
  [[nodiscard]] const geo::GeoIpDatabase& db_maxmind() const { return *db_maxmind_; }
  [[nodiscard]] const geo::GeoIpDatabase& db_ip2location() const {
    return *db_ip2location_;
  }
  [[nodiscard]] const geo::GeoIpDatabase& db_google() const { return *db_google_; }

  // --- DNS -------------------------------------------------------------------
  [[nodiscard]] netsim::IpAddr google_dns() const { return base_->google_dns(); }
  [[nodiscard]] netsim::IpAddr quad9_dns() const { return base_->quad9_dns(); }
  [[nodiscard]] netsim::IpAddr isp_resolver() const {
    return base_->isp_resolver();
  }
  [[nodiscard]] std::span<const RootServer> root_servers() const {
    return base_->root_servers();
  }
  [[nodiscard]] std::shared_ptr<const dns::ZoneRegistry> zones() const {
    return base_->zones();
  }
  // The logging authoritative server under probe_dns_zone().
  [[nodiscard]] dns::AuthoritativeService& probe_authority() {
    return *probe_authority_;
  }

  // --- web -------------------------------------------------------------------
  [[nodiscard]] tlssim::CaStore& ca_store() noexcept { return ca_store_; }
  // This world's decoded certificate chains, shared per chain bytes; the
  // suites' handshakes decode through it. Dropped with the world.
  [[nodiscard]] tlssim::ChainMemo& chain_memo() noexcept { return chain_memo_; }
  [[nodiscard]] std::shared_ptr<const SiteDirectory> site_directory() const {
    return base_->site_directory();
  }
  // The content this world serves for a hostname: the base's shared site,
  // or this world's own copy of a site that blocks VPN ranges.
  [[nodiscard]] std::shared_ptr<const http::Site> site(
      std::string_view hostname) const;
  // Ground-truth content: the page originally published for a hostname.
  [[nodiscard]] const http::Page* page_for(std::string_view hostname,
                                           std::string_view path = "/") const;

  // Marks a CIDR as known-VPN space: streaming-style sites begin blocking
  // it (reproduces §6.1.2's 403 behaviour).
  void blocklist_vpn_range(const netsim::Cidr& block);

  // --- measurement endpoints ---------------------------------------------------
  [[nodiscard]] std::span<const Anchor> anchors() const {
    return base_->anchors();
  }

  // Verifies the world's structural invariants (every test site resolvable
  // and serving, anchors and roots pingable, probe zone logging, censors
  // armed). Returns a list of problems; empty means healthy. Examples and
  // long campaigns call this before trusting a freshly built world.
  [[nodiscard]] std::vector<std::string> self_check();

  // Reverse DNS for backbone and datacenter-edge router addresses, in the
  // operator-style form "core1.<city-slug>.backbone.example" /
  // "edge.<city-slug>.<facility>.example". Traceroute-based geolocation
  // (§5.3.2) keys off these hostnames, as it does in the real Internet.
  [[nodiscard]] std::optional<std::string> reverse_dns(
      const netsim::IpAddr& router_addr) const;

  [[nodiscard]] const WorldBase& base() const noexcept { return *base_; }

  // --- censors ------------------------------------------------------------------
  [[nodiscard]] const std::vector<std::shared_ptr<CensorMiddlebox>>& censors()
      const {
    return censors_;
  }

 private:
  void build_fabric();
  void build_hosts();
  void build_censors();

  netsim::Host& new_host(std::string name);

  std::shared_ptr<const WorldBase> base_;
  std::uint64_t seed_;
  util::SimClock clock_;
  util::Rng rng_;
  std::unique_ptr<netsim::Network> network_;

  // All hosts live in a bump arena owned by the world (one arena per shard):
  // creation is a pointer bump, locality follows build order, and teardown
  // releases whole blocks after running host destructors newest-first. Host
  // pointers remain stable for the world's lifetime, exactly as the old
  // vector<unique_ptr<Host>> storage guaranteed. Declared after network_ so
  // hosts are destroyed before the network that references them, matching
  // the previous member order.
  util::Arena host_arena_;
  std::size_t host_count_ = 0;

  std::vector<Datacenter> datacenters_;
  WhoisDb whois_;
  std::shared_ptr<geo::AllocationRegistry> geo_registry_;
  std::unique_ptr<geo::GeoIpDatabase> db_maxmind_;
  std::unique_ptr<geo::GeoIpDatabase> db_ip2location_;
  std::unique_ptr<geo::GeoIpDatabase> db_google_;

  std::shared_ptr<dns::AuthoritativeService> probe_authority_;

  tlssim::CaStore ca_store_;
  tlssim::ChainMemo chain_memo_;
  // Served sites, parallel to base_->sites(); the VPN-blocking ones are
  // this world's copies, also listed in vpn_blocking_sites_.
  std::vector<std::shared_ptr<const http::Site>> sites_;
  std::vector<std::shared_ptr<http::Site>> vpn_blocking_sites_;

  std::vector<std::shared_ptr<CensorMiddlebox>> censors_;
  std::uint32_t next_client_ip_ = 10;  // within the residential pool
  std::uint32_t next_private_pool_ = 0;  // /24 index in 146.0.0.0/8
  // Private facilities are appended to datacenters_, which may reallocate;
  // cache by id string and re-find on use.
  std::map<std::string, std::string> private_dc_ids_;  // tenant:city -> dc id
};

}  // namespace vpna::inet
