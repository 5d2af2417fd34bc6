// The seed-independent part of a simulated world: the backbone fabric, the
// hosting datacenters, the layout of every infrastructure host (names,
// addresses, attachment points), the web's content and certificate chains,
// and the DNS zone and site-category tables. None of it depends on the
// world seed — it is a pure function of the city, datacenter and site
// catalogs — so a process builds it once (WorldBase::shared()) and every
// World, i.e. every campaign shard, builds on top of that one const base.
//
// What varies per world stays in the World: routers and links replayed from
// the base's fabric, hosts in the world's arena, network attachments,
// services, the web authority's query log, the jitter rng, WHOIS and GeoIP
// state, censors and provider overlays.
//
// Shared content is read-only. The one writer, World::blocklist_vpn_range,
// only touches sites marked blocks_vpn_ranges, and each World gets its own
// copy of those (copy-on-write); every other site is pointer-shared.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dns/server.h"
#include "geo/cities.h"
#include "http/server.h"
#include "inet/censor.h"
#include "netsim/ip.h"
#include "netsim/routing_plane.h"
#include "tlssim/cert.h"

namespace vpna::inet {

// A hosting location: a provider's presence in one city, with an IPv4 pool
// (and optional IPv6) from which server addresses are allocated.
struct Datacenter {
  std::string id;                // "oceancompute-blr"
  std::string hosting_provider;  // "OceanCompute Ltd"
  geo::City city;
  netsim::Cidr pool4;
  std::optional<netsim::Cidr> pool6;
  std::uint32_t asn = 0;
  std::string registered_country;  // WHOIS country (usually == city country)
  netsim::RouterId router = 0;
  std::uint32_t next_host = 10;  // next free offset within pool4
  // True for pools widely known as VPN/hosting space (streaming sites
  // block these ranges).
  bool known_vpn_hosting = false;
  // Tenant isolation: in facilities with large pools each customer rents
  // its own /24 slice, so distinct tenants do not share blocks. Small
  // pools (/22 and tighter — the budget hosts of Table 5) have no room
  // for slices and allocate from shared space.
  std::map<std::string, std::pair<std::uint32_t, std::uint32_t>> tenant_slices;
  std::uint32_t next_slice = 1;  // /24 index within the pool (0 = infra)

  // True when the pool is wide enough (/21 or wider) for tenant slices;
  // the shared part of the pool is then slice 0 alone.
  [[nodiscard]] bool sliced() const noexcept {
    return pool4.prefix_len() < 22;
  }
  // Next address from the shared part of the pool. Throws
  // std::logic_error when a sliced pool's slice 0 is full.
  netsim::IpAddr allocate();
  // The IPv6 address paired with a v4 address of this pool (nullopt when
  // the datacenter has no v6 pool). Derived from the v4 address, so the
  // pairing is unique whichever allocation policy produced it.
  [[nodiscard]] std::optional<netsim::IpAddr> v6_for(
      const netsim::IpAddr& addr4) const;
};

// Synthetic IPv6 pool of the datacenter with this index (private
// facilities number theirs from 100).
[[nodiscard]] netsim::Cidr datacenter_v6_pool(std::size_t index);

// geo::city_by_name, throwing std::logic_error for unknown names.
[[nodiscard]] geo::City require_city(std::string_view name);

struct Anchor {
  std::string name;
  geo::City city;
  netsim::IpAddr addr;
};

struct RootServer {
  char letter;  // 'D', 'E', 'F', 'J', 'L'
  netsim::IpAddr addr;
};

// One infrastructure host of the base layout. A World creates these in
// layout order (the order is part of the determinism contract: it fixes
// attachment order and so anycast tie-breaking) and binds the role's
// services on each.
struct InfraHost {
  enum class Role : std::uint8_t {
    kWebAuthority,    // authoritative DNS for every site zone
    kProbeAuthority,  // logging authority for the tagged probe zone
    kResolver,        // public anycast replica or the ISP resolver
    kRoot,            // root-server instance (ping target only)
    kSite,            // web server for sites()[site]
    kHeaderEcho,
    kGeoApi,
    kStun,
    kAnchor,
  };
  Role role = Role::kRoot;
  std::string name;
  netsim::IpAddr addr4;
  std::optional<netsim::IpAddr> addr6;
  netsim::RouterId router = 0;
  double access_latency_ms = 0.0;
  bool routed = true;      // installs default routes (roots/anchors do not)
  std::uint32_t site = 0;  // kSite: index into WorldBase::sites()
};

// A site's shared content: pages, flags and — when it also serves HTTPS —
// the certificate chain its TLS terminator presents.
struct HostedSite {
  std::shared_ptr<const http::Site> site;
  std::shared_ptr<const tlssim::CertChain> chain;
  // Streaming-style site that 403s known-VPN ranges: the only content a
  // World mutates, so each World serves its own copy.
  bool blocks_vpn_ranges = false;
};

struct BackboneLink {
  netsim::RouterId a = 0;
  netsim::RouterId b = 0;
  double latency_ms = 0.0;
};

class WorldBase {
 public:
  // The process-wide base, built on first use (thread-safe) and never
  // rebuilt. Campaign drivers touch it before dispatching shards, so forked
  // workers inherit it.
  [[nodiscard]] static std::shared_ptr<const WorldBase> shared();
  // A fresh base, independent of shared(); always equal to it by
  // fingerprint.
  [[nodiscard]] static std::shared_ptr<const WorldBase> build();

  WorldBase(const WorldBase&) = delete;
  WorldBase& operator=(const WorldBase&) = delete;

  // Router names in id order (cities in geo::cities() order, then one edge
  // router per datacenter) and the links between them in insertion order.
  [[nodiscard]] const std::vector<std::string>& router_names() const {
    return router_names_;
  }
  [[nodiscard]] const std::vector<BackboneLink>& links() const {
    return links_;
  }
  // The all-pairs plane of that fabric, before any leaf is added.
  [[nodiscard]] std::shared_ptr<const netsim::RoutingPlane> routing_plane()
      const {
    return plane_;
  }
  // The datacenter table as it stands after the infrastructure hosts took
  // their addresses: a World copies it and allocates onward from there.
  [[nodiscard]] const std::vector<Datacenter>& datacenters() const {
    return datacenters_;
  }

  [[nodiscard]] const std::vector<InfraHost>& hosts() const { return hosts_; }
  [[nodiscard]] const std::vector<HostedSite>& sites() const { return sites_; }
  [[nodiscard]] std::span<const Anchor> anchors() const { return anchors_; }
  [[nodiscard]] std::span<const RootServer> root_servers() const {
    return roots_;
  }
  [[nodiscard]] netsim::IpAddr google_dns() const { return google_dns_; }
  [[nodiscard]] netsim::IpAddr quad9_dns() const { return quad9_dns_; }
  [[nodiscard]] netsim::IpAddr isp_resolver() const { return isp_resolver_; }

  [[nodiscard]] std::shared_ptr<const dns::ZoneRegistry> zones() const {
    return zones_;
  }
  // Every site hostname's A/AAAA records, served by each World's web
  // authority.
  [[nodiscard]] std::shared_ptr<const dns::AuthoritativeService::RecordMap>
  web_records() const {
    return web_records_;
  }
  [[nodiscard]] std::shared_ptr<const SiteDirectory> site_directory() const {
    return site_directory_;
  }

  // FNV-1a over the fabric, datacenters, host layout, site content and
  // chains, and the zone, record and category tables. Two bases built by
  // the same code agree; a test pins that a fresh base equals shared().
  [[nodiscard]] std::uint64_t fingerprint() const;

 private:
  WorldBase() = default;

  void build_fabric();
  void build_dns();
  void build_web();
  void build_anchors();

  InfraHost& place(InfraHost::Role role, std::string name,
                   netsim::IpAddr addr4, netsim::RouterId router,
                   double access_latency_ms);
  InfraHost& place_server(Datacenter& dc, InfraHost::Role role,
                          std::string name, bool with_v6 = false);
  Datacenter& datacenter(std::string_view id);
  [[nodiscard]] netsim::RouterId city_router(std::string_view city) const;
  // Adds a hostname's records to the web authority's table and points its
  // registered domain's zone at the web authority.
  void publish_dns(std::string_view hostname, const netsim::IpAddr& a,
                   std::optional<netsim::IpAddr> aaaa = std::nullopt);

  std::vector<std::string> router_names_;
  std::vector<BackboneLink> links_;
  std::shared_ptr<const netsim::RoutingPlane> plane_;
  std::vector<Datacenter> datacenters_;

  std::vector<InfraHost> hosts_;
  std::vector<HostedSite> sites_;
  std::vector<Anchor> anchors_;
  std::vector<RootServer> roots_;
  netsim::IpAddr google_dns_;
  netsim::IpAddr quad9_dns_;
  netsim::IpAddr isp_resolver_;
  netsim::IpAddr web_authority_addr_;

  std::shared_ptr<dns::ZoneRegistry> zones_ =
      std::make_shared<dns::ZoneRegistry>();
  std::shared_ptr<dns::AuthoritativeService::RecordMap> web_records_ =
      std::make_shared<dns::AuthoritativeService::RecordMap>();
  std::shared_ptr<SiteDirectory> site_directory_ =
      std::make_shared<SiteDirectory>();
  std::uint64_t cert_serial_ = 1;
};

}  // namespace vpna::inet
