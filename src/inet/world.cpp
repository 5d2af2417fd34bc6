#include "inet/world.h"

#include <array>
#include <stdexcept>

#include "dns/client.h"
#include "http/client.h"
#include "util/strings.h"

namespace vpna::inet {

World::World(std::uint64_t seed,
             std::shared_ptr<const netsim::RoutingPlane> shared_plane,
             std::shared_ptr<const WorldBase> base)
    : base_(std::move(base)),
      seed_(seed),
      rng_(seed),
      network_(std::make_unique<netsim::Network>(clock_, util::Rng(seed).fork("network-jitter"))),
      geo_registry_(std::make_shared<geo::AllocationRegistry>()) {
  if (base_ == nullptr) throw std::invalid_argument("World: null base");
  build_fabric();
  // The router fabric is the base's core, so the world routes on the
  // base's plane (or the given one, checked against the fabric). Later
  // routers (private facilities) are single-link leaves that extend it.
  network_->adopt_routing_plane(shared_plane != nullptr
                                    ? std::move(shared_plane)
                                    : base_->routing_plane());
  build_hosts();
  build_censors();

  db_maxmind_ = std::make_unique<geo::GeoIpDatabase>(
      geo::make_maxmind_like(geo_registry_, seed_));
  db_ip2location_ = std::make_unique<geo::GeoIpDatabase>(
      geo::make_ip2location_like(geo_registry_, seed_));
  db_google_ = std::make_unique<geo::GeoIpDatabase>(
      geo::make_google_like(geo_registry_, seed_));
}

netsim::Host& World::new_host(std::string name) {
  ++host_count_;
  return *host_arena_.create<netsim::Host>(std::move(name));
}

void World::reserve_hosts(std::size_t extra_hosts) {
  network_->reserve_hosts(extra_hosts);
  // Hosts plus their out-of-line state (interfaces vector etc.) land in the
  // arena only for the Host object itself; 2x sizeof(Host) absorbs the
  // finalizer-table growth and alignment slop without overcommitting.
  host_arena_.reserve(extra_hosts * 2 * sizeof(netsim::Host));
}

void World::build_fabric() {
  // Router ids follow the base's order: city i is router i. Each router's
  // link list is sized to its degree in the base's fabric.
  const auto& names = base_->router_names();
  std::vector<std::size_t> degree(names.size());
  for (const auto& link : base_->links()) {
    ++degree[link.a];
    ++degree[link.b];
  }
  for (std::size_t r = 0; r < names.size(); ++r)
    (void)network_->add_router(names[r], degree[r]);
  for (const auto& link : base_->links())
    network_->add_link(link.a, link.b, link.latency_ms);

  datacenters_ = base_->datacenters();
  for (const auto& dc : datacenters_) {
    whois_.add(WhoisRecord{dc.pool4, dc.hosting_provider,
                           std::string(dc.city.country_code), dc.asn});
    register_geo(dc.pool4, dc.city, dc.city);
  }
}

namespace {

// "St Petersburg" -> "st-petersburg" for rDNS labels.
std::string city_slug(std::string_view city) {
  std::string slug;
  for (const char c : city) {
    if (std::isalnum(static_cast<unsigned char>(c)))
      slug += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    else if (!slug.empty() && slug.back() != '-')
      slug += '-';
  }
  while (!slug.empty() && slug.back() == '-') slug.pop_back();
  return slug;
}

}  // namespace

std::optional<std::string> World::reverse_dns(
    const netsim::IpAddr& router_addr) const {
  // Backbone router addresses are synthesized from the router id.
  if (!netsim::Cidr::parse("198.18.0.0/15")->contains(router_addr))
    return std::nullopt;
  const auto bytes = router_addr.bytes();
  const auto id = static_cast<netsim::RouterId>((bytes[2] << 8) | bytes[3]);
  if (id >= network_->router_count()) return std::nullopt;

  const std::string& name = network_->router_name(id);
  if (name.starts_with("dc:")) {
    // Datacenter edge: find the facility to recover its city.
    for (const auto& dc : datacenters_) {
      if ("dc:" + dc.id == name) {
        return "edge." + city_slug(dc.city.name) + "." +
               city_slug(dc.hosting_provider) + ".example";
      }
    }
    return std::nullopt;
  }
  // City core router: the name IS the city.
  if (geo::city_by_name(name))
    return "core1." + city_slug(name) + ".backbone.example";
  return std::nullopt;
}

netsim::RouterId World::router_for_city(std::string_view city) const {
  const auto all = geo::cities();
  for (std::size_t i = 0; i < all.size(); ++i)
    if (all[i].name == city) return static_cast<netsim::RouterId>(i);
  throw std::logic_error("router_for_city: unknown city " + std::string(city));
}

Datacenter* World::datacenter_by_id(std::string_view id) {
  for (auto& dc : datacenters_)
    if (dc.id == id) return &dc;
  return nullptr;
}

Datacenter& World::private_datacenter(std::string_view tenant,
                                      std::string_view city) {
  const std::string key = std::string(tenant) + ":" + std::string(city);
  if (const auto it = private_dc_ids_.find(key); it != private_dc_ids_.end())
    return *datacenter_by_id(it->second);

  // Reseller brands cycle deterministically; WHOIS shows the reseller, not
  // the VPN brand (as the paper observed for Boxpn/Anonine).
  static constexpr std::array<std::string_view, 8> kResellers = {
      "BlueRack Hosting", "QuickServ Ltd",   "ColoMatrix",   "NetFoundry SA",
      "RackMarket BV",    "ServerMill LLC",  "IronGrid spol", "HavenNode OU",
  };
  if (next_private_pool_ >= 65000)
    throw std::logic_error("private pool space exhausted");
  const std::uint32_t index = next_private_pool_++;

  Datacenter dc;
  dc.id = "prv:" + key;
  dc.hosting_provider =
      std::string(kResellers[index % kResellers.size()]);
  dc.city = require_city(city);
  dc.pool4 = netsim::Cidr(
      netsim::IpAddr::v4(146, static_cast<std::uint8_t>(index >> 8),
                         static_cast<std::uint8_t>(index & 0xff), 0),
      24);
  dc.pool6 = datacenter_v6_pool(100 + index);
  dc.asn = 200000 + index % 4000;  // 32-bit private-use ASN range
  dc.registered_country = std::string(dc.city.country_code);
  dc.known_vpn_hosting = true;
  dc.router = network_->add_router("dc:" + dc.id, 1);
  network_->add_link(dc.router, router_for_city(city), 0.2);
  whois_.add(WhoisRecord{dc.pool4, dc.hosting_provider,
                         std::string(dc.city.country_code), dc.asn});
  register_geo(dc.pool4, dc.city, dc.city);

  datacenters_.push_back(std::move(dc));
  private_dc_ids_[key] = datacenters_.back().id;
  return datacenters_.back();
}

namespace {

// Per-tenant /24 slice allocation for facilities with room for it
// (Datacenter::sliced()). A full slice throws: its next address would be
// the next tenant's, attached silently as anycast.
netsim::IpAddr allocate_tenant_slice(Datacenter& dc, std::string_view tenant) {
  auto [it, inserted] =
      dc.tenant_slices.try_emplace(std::string(tenant), 0u, 10u);
  if (inserted) {
    it->second.first = dc.next_slice++;
    const std::uint32_t slices =
        1u << (24 - dc.pool4.prefix_len());  // /24s in the pool
    if (it->second.first >= slices)
      throw std::logic_error("datacenter " + dc.id + " out of /24 slices");
  }
  auto& [slice, next] = it->second;
  if (next > 255)
    throw std::logic_error("datacenter " + dc.id + " slice of " +
                           std::string(tenant) + " is full");
  return dc.pool4.host_at(slice * 256 + next++);
}

}  // namespace

netsim::Host& World::spawn_server(Datacenter& dc, std::string name,
                                  bool with_v6, std::string_view tenant) {
  // Allocate first: a full pool throws before any host is created.
  const auto addr4 = !tenant.empty() && dc.sliced()
                         ? allocate_tenant_slice(dc, tenant)
                         : dc.allocate();
  auto& host = new_host(std::move(name));
  const auto addr6 = with_v6 ? dc.v6_for(addr4) : std::nullopt;
  host.add_interface("eth0", addr4, addr6);
  host.routes().add(netsim::Route{netsim::Cidr(netsim::IpAddr::v4(0, 0, 0, 0), 0),
                                  "eth0", std::nullopt, 0});
  if (addr6) {
    host.routes().add(netsim::Route{
        netsim::Cidr(netsim::IpAddr::v6({}), 0), "eth0", std::nullopt, 0});
  }
  // Infrastructure hosts do not run packet capture (memory stays bounded
  // over a full campaign); tests that need a server-side view re-enable it.
  host.capture().set_enabled(false);
  network_->attach_host(host, dc.router, 0.25);
  return host;
}

netsim::Host& World::spawn_client(std::string_view city, std::string name) {
  // Past 71.80.255.255 the octet casts below would wrap onto the ISP
  // resolver's 71.80.0.1 and attach silently as anycast.
  if (next_client_ip_ > 0xffff)
    throw std::logic_error("residential pool exhausted");
  auto& host = new_host(std::move(name));
  const auto addr4 = netsim::IpAddr::v4(71, 80,
                                        static_cast<std::uint8_t>(next_client_ip_ >> 8),
                                        static_cast<std::uint8_t>(next_client_ip_ & 0xff));
  std::array<std::uint16_t, 8> g{};
  g[0] = 0x2600;
  g[1] = 0x8800;
  g[7] = static_cast<std::uint16_t>(next_client_ip_);
  ++next_client_ip_;
  const auto addr6 = netsim::IpAddr::v6_groups(g);
  host.add_interface("eth0", addr4, addr6);
  host.routes().add(netsim::Route{netsim::Cidr(netsim::IpAddr::v4(0, 0, 0, 0), 0),
                                  "eth0", std::nullopt, 10});
  host.routes().add(netsim::Route{netsim::Cidr(netsim::IpAddr::v6({}), 0),
                                  "eth0", std::nullopt, 10});
  host.dns_servers().push_back(isp_resolver());
  network_->attach_host(host, router_for_city(city), 4.0);
  return host;
}

void World::register_geo(const netsim::Cidr& block, const geo::City& true_city,
                         const geo::City& registered_city) {
  geo::Allocation a;
  a.block = block;
  a.true_location = geo::GeoRecord{std::string(true_city.country_code),
                                   std::string(true_city.name),
                                   true_city.location};
  a.registered_location =
      geo::GeoRecord{std::string(registered_city.country_code),
                     std::string(registered_city.name),
                     registered_city.location};
  geo_registry_->add(a);
}

void World::build_hosts() {
  using Role = InfraHost::Role;
  ca_store_.trust("SimTrust Root CA");
  ca_store_.trust("GlobalCert Root");
  sites_.reserve(base_->sites().size());
  for (const auto& spec : base_->hosts()) {
    auto& host = new_host(spec.name);
    host.add_interface("eth0", spec.addr4, spec.addr6);
    if (spec.routed) {
      host.routes().add(netsim::Route{
          netsim::Cidr(netsim::IpAddr::v4(0, 0, 0, 0), 0), "eth0", std::nullopt, 0});
      if (spec.addr6) {
        host.routes().add(netsim::Route{
            netsim::Cidr(netsim::IpAddr::v6({}), 0), "eth0", std::nullopt, 0});
      }
    }
    // Infrastructure hosts do not run packet capture (memory stays bounded
    // over a full campaign); tests that need a server-side view re-enable it.
    host.capture().set_enabled(false);
    network_->attach_host(host, spec.router, spec.access_latency_ms);

    switch (spec.role) {
      case Role::kWebAuthority:
        host.bind_service(netsim::Proto::kUdp, netsim::kPortDns,
                          std::make_shared<dns::AuthoritativeService>(
                              base_->web_records()));
        break;
      case Role::kProbeAuthority: {
        probe_authority_ = std::make_shared<dns::AuthoritativeService>();
        dns::ZoneRecord probe_apex;
        probe_apex.a = {spec.addr4};
        probe_apex.txt = {"probe-zone"};
        probe_authority_->add_wildcard_zone(std::string(probe_dns_zone()),
                                            probe_apex);
        host.bind_service(netsim::Proto::kUdp, netsim::kPortDns,
                          probe_authority_);
        break;
      }
      case Role::kResolver:
        host.bind_service(
            netsim::Proto::kUdp, netsim::kPortDns,
            std::make_shared<dns::RecursiveResolverService>(base_->zones()));
        break;
      case Role::kSite: {
        const auto& hosted = base_->sites()[spec.site];
        std::shared_ptr<const http::Site> site = hosted.site;
        if (hosted.blocks_vpn_ranges) {
          // The one piece of content a world writes (blocklist_vpn_range):
          // served from this world's own copy.
          auto own = std::make_shared<http::Site>(*hosted.site);
          vpn_blocking_sites_.push_back(own);
          site = std::move(own);
        }
        auto web = std::make_shared<http::WebServerService>(site);
        sites_.push_back(std::move(site));
        host.bind_service(netsim::Proto::kTcp, netsim::kPortHttp, web);
        if (hosted.chain) {
          host.bind_service(netsim::Proto::kTcp, netsim::kPortHttps,
                            std::make_shared<tlssim::TlsTerminator>(
                                hosted.chain, std::move(web)));
        }
        break;
      }
      case Role::kHeaderEcho:
        host.bind_service(netsim::Proto::kTcp, netsim::kPortHttp,
                          std::make_shared<http::HeaderEchoService>());
        break;
      case Role::kGeoApi:
        // Answers with its belief about the requester's address, via the
        // google-like database (constructed after the hosts, hence the
        // lookup through `this` at request time).
        host.bind_service(
            netsim::Proto::kTcp, netsim::kPortHttp,
            std::make_shared<netsim::LambdaService>(
                [this](netsim::ServiceContext& ctx) -> std::optional<std::string> {
                  const auto req = http::HttpRequestView::parse(ctx.request.payload);
                  http::HttpResponse resp;
                  if (!req) {
                    resp.status = 400;
                    resp.reason = "Bad Request";
                    return resp.encode();
                  }
                  resp.status = 200;
                  resp.reason = "OK";
                  resp.set_header("Content-Type", "application/json");
                  const auto rec = db_google_->lookup(ctx.request.src);
                  if (rec) {
                    resp.body = util::format(
                        "{\"country\":\"%s\",\"city\":\"%s\",\"lat\":%.2f,\"lon\":%.2f}",
                        rec->country_code.c_str(), rec->city.c_str(),
                        rec->location.lat_deg, rec->location.lon_deg);
                  } else {
                    resp.body = "{\"error\":\"not found\"}";
                  }
                  return resp.encode();
                }));
        break;
      case Role::kStun:
        // Answers a binding request with the source address it observed —
        // the building block of the WebRTC leak audit.
        host.bind_service(
            netsim::Proto::kUdp, kPortStun,
            std::make_shared<netsim::LambdaService>(
                [](netsim::ServiceContext& ctx) -> std::optional<std::string> {
                  if (ctx.request.payload != "STUN-BINDING") return std::nullopt;
                  return "MAPPED|" + ctx.request.src.str();
                }));
        break;
      case Role::kRoot:
      case Role::kAnchor:
        break;
    }
  }
}

std::shared_ptr<const http::Site> World::site(std::string_view hostname) const {
  for (const auto& site : sites_)
    if (site->hostname == hostname) return site;
  return nullptr;
}

const http::Page* World::page_for(std::string_view hostname,
                                  std::string_view path) const {
  const auto served = site(hostname);
  if (served == nullptr) return nullptr;
  const auto it = served->pages.find(std::string(path));
  return it == served->pages.end() ? nullptr : &it->second;
}

void World::blocklist_vpn_range(const netsim::Cidr& block) {
  for (const auto& site : vpn_blocking_sites_)
    site->blocked_ranges.push_back(block);
}

std::vector<std::string> World::self_check() {
  std::vector<std::string> problems;
  auto& probe = spawn_client("Chicago", "self-check-probe");
  probe.capture().set_enabled(false);

  // Every DOM-test site resolves and serves its root page.
  http::HttpClient browser(*network_, probe);
  for (const auto& site : dom_test_sites()) {
    const auto res = browser.fetch("http://" + std::string(site.hostname) + "/");
    if (!res.ok())
      problems.push_back("site unreachable: " + std::string(site.hostname));
  }

  // Anchors and root letters answer pings.
  for (const auto& anchor : anchors()) {
    if (!network_->ping(probe, anchor.addr))
      problems.push_back("anchor unreachable: " + anchor.name);
  }
  for (const auto& root : root_servers()) {
    if (!network_->ping(probe, root.addr))
      problems.push_back(std::string("root unreachable: ") + root.letter);
  }

  // The probe zone logs recursion origins.
  const auto before = probe_authority_->query_log().size();
  const auto lookup =
      dns::query(*network_, probe, google_dns(),
                 "selfcheck.rdns.probe-infra.net", dns::RrType::kA);
  if (!lookup.ok() || probe_authority_->query_log().size() != before + 1)
    problems.push_back("probe zone not logging recursion origins");

  // Censors are armed for the five countries.
  std::set<std::string> censored_countries;
  for (const auto& censor : censors_)
    censored_countries.insert(censor->policy().country_code);
  for (const char* cc : {"TR", "KR", "RU", "NL", "TH"}) {
    if (!censored_countries.contains(cc))
      problems.push_back(std::string("censor missing for ") + cc);
  }

  network_->detach_host(probe);
  return problems;
}

void World::build_censors() {
  using Cat = SiteCategory;
  struct CensorSpec {
    std::string_view dc_id;
    std::string_view operator_name;
    std::string_view country;
    std::string_view redirect;
    std::set<Cat> categories;
    std::set<std::string, std::less<>> hosts;
  };
  const std::vector<CensorSpec> kSpecs = {
      {"anatolia-ist", "TIB", "TR", "http://195.175.254.2",
       {Cat::kPornography, Cat::kFileSharing}, {"wikipedia.org"}},
      {"anatolia-ank", "TIB", "TR", "http://195.175.254.2",
       {Cat::kPornography, Cat::kFileSharing}, {"wikipedia.org"}},
      {"hanriver-sel", "KCSC", "KR", "http://www.warning.or.kr",
       {Cat::kPornography}, {}},
      {"ttk-mow", "TTK", "RU", "http://fz139.ttk.ru",
       {Cat::kPornography, Cat::kFileSharing}, {"jw.org", "linkedin.com"}},
      {"hzt-mow", "HoztNode", "RU", "http://zapret.hoztnode.net",
       {Cat::kPornography, Cat::kFileSharing}, {"jw.org", "linkedin.com"}},
      {"rt-led", "Rostelecom", "RU", "http://warning.rt.ru",
       {Cat::kPornography, Cat::kFileSharing}, {"jw.org", "linkedin.com"}},
      {"mts-led", "MTS", "RU", "http://blocked.mts.ru",
       {Cat::kPornography, Cat::kFileSharing}, {"jw.org", "linkedin.com"}},
      {"dtln-nsk", "DataLine", "RU", "http://block.dtln.ru",
       {Cat::kPornography, Cat::kFileSharing}, {"jw.org", "linkedin.com"}},
      {"beeline-mow", "Beeline", "RU", "http://blackhole.beeline.ru",
       {Cat::kPornography, Cat::kFileSharing}, {"jw.org", "linkedin.com"}},
      {"ziggonet-ams", "Ziggo", "NL", "https://www.ziggo.nl",
       {Cat::kFileSharing}, {}},
      {"upclink-ams", "UPC", "NL", "http://213.46.185.10",
       {Cat::kFileSharing}, {}},
      {"siam-bkk", "MICT", "TH", "http://103.77.116.101",
       {Cat::kPornography}, {}},
  };
  for (const auto& spec : kSpecs) {
    auto* dc = datacenter_by_id(spec.dc_id);
    if (dc == nullptr) throw std::logic_error("censor: unknown dc");
    CensorPolicy policy;
    policy.operator_name = std::string(spec.operator_name);
    policy.country_code = std::string(spec.country);
    policy.redirect_url = std::string(spec.redirect);
    policy.blocked_categories = spec.categories;
    policy.blocked_hosts = spec.hosts;
    auto censor =
        std::make_shared<CensorMiddlebox>(std::move(policy), site_directory());
    network_->set_middlebox(dc->router, censor);
    censors_.push_back(std::move(censor));
  }
}

}  // namespace vpna::inet
