#include "inet/world_base.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

#include "http/url.h"
#include "inet/sites.h"
#include "netsim/network.h"
#include "obs/trace.h"
#include "util/clock.h"
#include "util/rng.h"
#include "util/strings.h"

namespace vpna::inet {

namespace {

// Backbone hub cities: fully meshed with each other; every other city links
// to its two nearest hubs plus its three nearest neighbours.
constexpr std::array<std::string_view, 10> kHubs = {
    "New York", "Los Angeles", "London",   "Frankfurt",  "Singapore",
    "Tokyo",    "Sao Paulo",   "Dubai",    "Sydney",     "Johannesburg"};

struct DcSpec {
  std::string_view id;
  std::string_view provider;
  std::string_view city;
  std::string_view pool;  // CIDR text
  std::uint32_t asn;
  bool known_vpn_hosting;
};

// Hosting datacenters. The first eight reproduce the address blocks, ASNs
// and registration countries of the paper's Table 5 (blocks shared by three
// or more VPN providers); the remainder give the ecosystem its geographic
// spread. Provider names are synthetic stand-ins for the hosting companies
// the paper mentions (Digital Ocean, LeaseWeb, SoftLayer, ...).
constexpr std::array<DcSpec, 47> kDatacenters = {{
    // --- Table 5 blocks -----------------------------------------------------
    {"gigacloud-osl", "GigaCloud AS", "Oslo", "82.102.27.0/24", 9009, true},
    {"rootbox-lux", "RootBox Sarl", "Luxembourg", "94.242.192.0/18", 5577, true},
    {"oceancompute-blr", "OceanCompute Ltd", "Bangalore", "139.59.0.0/18", 14061, true},
    {"stratalayer-mex", "StrataLayer Inc", "Mexico City", "169.57.0.0/17", 36351, true},
    {"privatetier-zrh", "PrivateTier GmbH", "Zurich", "179.43.128.0/18", 51852, true},
    {"greenhost-dub", "GreenHost IE", "Dublin", "185.108.128.0/22", 30900, true},
    {"gigaline-kul", "GigaLine MY", "Kuala Lumpur", "202.176.4.0/24", 55720, true},
    {"leaplayer-sin", "LeapLayer Pte", "Singapore", "209.58.176.0/21", 59253, true},
    // --- North America --------------------------------------------------------
    {"oceancompute-nyc", "OceanCompute Ltd", "New York", "45.0.0.0/19", 14061, true},
    {"rentweb-sea", "RentWeb BV", "Seattle", "45.0.32.0/19", 60781, true},
    {"rentweb-mia", "RentWeb BV", "Miami", "45.0.64.0/19", 60781, true},
    {"nodespark-lax", "NodeSpark LLC", "Los Angeles", "45.0.96.0/19", 20473, true},
    {"nodespark-chi", "NodeSpark LLC", "Chicago", "45.0.128.0/19", 20473, false},
    {"stratalayer-dal", "StrataLayer Inc", "Dallas", "45.0.160.0/19", 36351, true},
    {"stratalayer-ash", "StrataLayer Inc", "Ashburn", "45.0.192.0/19", 36351, false},
    {"edgeprime-sjc", "EdgePrime Co", "San Jose", "45.0.224.0/19", 13335, false},
    {"nodespark-atl", "NodeSpark LLC", "Atlanta", "45.1.0.0/19", 20473, false},
    {"maple-tor", "MapleHost", "Toronto", "45.1.32.0/19", 53667, true},
    {"maple-mtl", "MapleHost", "Montreal", "45.1.64.0/19", 53667, true},
    // --- Europe -----------------------------------------------------------------
    {"hosteu-lon", "HostEU Ltd", "London", "45.1.96.0/19", 16276, true},
    {"hosteu-man", "HostEU Ltd", "Manchester", "45.1.128.0/19", 16276, false},
    {"hosteu-ams", "HostEU Ltd", "Amsterdam", "45.1.160.0/19", 60781, true},
    // Two small Dutch access ISPs with court-ordered file-sharing blocks;
    // the big Amsterdam hosting floor (hosteu-ams) is NOT censored, so only
    // providers buying capacity from these ISPs show NL redirects (Table 4
    // reports exactly one VPN behind each NL block page).
    {"upclink-ams", "UpcLink BV", "Amsterdam", "45.4.96.0/19", 6830, true},
    {"ziggonet-ams", "ZiggoNet BV", "Amsterdam", "45.4.224.0/19", 9143, true},
    {"hosteu-fra", "HostEU Ltd", "Frankfurt", "45.1.192.0/19", 24940, true},
    {"hosteu-ber", "HostEU Ltd", "Berlin", "45.1.224.0/19", 24940, false},
    {"hosteu-par", "HostEU Ltd", "Paris", "45.2.0.0/19", 16276, true},
    {"czhost-prg", "CzechHost sro", "Prague", "45.2.32.0/19", 197019, true},
    {"nordichost-sto", "NordicHost AB", "Stockholm", "45.2.64.0/19", 42708, true},
    {"balt-rig", "BaltServ SIA", "Riga", "45.2.96.0/19", 52048, true},
    {"rom-buh", "DaciaNet SRL", "Bucharest", "45.2.128.0/19", 9050, true},
    {"medhost-mil", "MedHost Srl", "Milan", "45.2.160.0/19", 49367, false},
    {"iber-mad", "IberServ SL", "Madrid", "45.2.192.0/19", 12479, false},
    // --- Russia (one datacenter per access ISP; each has its own censor) ------
    {"ttk-mow", "TTK Hosting", "Moscow", "45.3.0.0/19", 20485, true},
    {"hzt-mow", "HoztNode", "Moscow", "45.3.32.0/19", 29226, true},
    {"beeline-mow", "Beeline DC", "Moscow", "45.3.64.0/19", 3216, false},
    {"rt-led", "Rostelecom DC", "St Petersburg", "45.3.96.0/19", 12389, true},
    {"mts-led", "MTS Hosting", "St Petersburg", "45.3.128.0/19", 8359, false},
    {"dtln-nsk", "DataLine NSK", "Novosibirsk", "45.3.160.0/19", 9123, true},
    // --- Censoring & regional ---------------------------------------------------
    {"anatolia-ist", "AnatoliaNet", "Istanbul", "45.3.192.0/19", 34984, true},
    {"anatolia-ank", "AnatoliaNet", "Ankara", "45.3.224.0/19", 34984, false},
    {"hanriver-sel", "HanRiver IDC", "Seoul", "45.4.0.0/19", 9318, true},
    {"siam-bkk", "SiamColo", "Bangkok", "45.4.32.0/19", 131090, true},
    {"sakura-tyo", "SakuraDC", "Tokyo", "45.4.64.0/19", 9370, true},
    {"harbour-hkg", "HarbourCloud", "Hong Kong", "45.4.128.0/19", 9381, true},
    {"aus-syd", "AusgridHost", "Sydney", "45.4.160.0/19", 38195, true},
    {"sam-gru", "SulAmerica DC", "Sao Paulo", "45.4.192.0/19", 28573, true},
}};

}  // namespace

netsim::Cidr datacenter_v6_pool(std::size_t index) {
  std::array<std::uint16_t, 8> groups{};
  groups[0] = 0x2a0e;
  groups[1] = static_cast<std::uint16_t>(0x0100 + index);
  return netsim::Cidr(netsim::IpAddr::v6_groups(groups), 32);
}

geo::City require_city(std::string_view name) {
  const auto c = geo::city_by_name(name);
  if (!c) throw std::logic_error("unknown city: " + std::string(name));
  return *c;
}

netsim::IpAddr Datacenter::allocate() {
  // Past offset 255 the address would land in tenant slice 1 and attach
  // silently as anycast with that tenant's first server.
  if (sliced() && next_host > 255)
    throw std::logic_error("datacenter " + id + " out of shared addresses");
  return pool4.host_at(next_host++);
}

std::optional<netsim::IpAddr> Datacenter::v6_for(
    const netsim::IpAddr& addr4) const {
  if (!pool6) return std::nullopt;
  auto bytes = pool6->network().bytes();
  const auto v4 = addr4.v4_value();
  bytes[13] = static_cast<std::uint8_t>(v4 >> 16);
  bytes[14] = static_cast<std::uint8_t>(v4 >> 8);
  bytes[15] = static_cast<std::uint8_t>(v4);
  return netsim::IpAddr::v6(bytes);
}

std::shared_ptr<const WorldBase> WorldBase::shared() {
  static const std::shared_ptr<const WorldBase> base = build();
  return base;
}

std::shared_ptr<const WorldBase> WorldBase::build() {
  // Built outside any shard's observation: whichever shard happens to touch
  // the base first must not see its spans or counters. The profiler still
  // records the one-time build.
  obs::ScopedObservation unobserved(nullptr, nullptr);
  obs::Span span("world.base", "inet");
  std::shared_ptr<WorldBase> base(new WorldBase());
  base->build_fabric();
  base->build_dns();
  base->build_web();
  base->build_anchors();
  return base;
}

void WorldBase::build_fabric() {
  const auto all = geo::cities();
  for (const auto& c : all) router_names_.emplace_back(c.name);
  const auto link = [&](std::size_t i, std::size_t j) {
    links_.push_back(BackboneLink{
        static_cast<netsim::RouterId>(i), static_cast<netsim::RouterId>(j),
        geo::link_latency_ms(all[i].location, all[j].location)});
  };

  // Backbone: the hubs are fully meshed; every city links to its three
  // nearest cities and its two nearest hubs.
  std::vector<std::size_t> hub_idx;
  for (const auto hub : kHubs) {
    for (std::size_t i = 0; i < all.size(); ++i)
      if (all[i].name == hub) hub_idx.push_back(i);
  }
  for (std::size_t i = 0; i < hub_idx.size(); ++i)
    for (std::size_t j = i + 1; j < hub_idx.size(); ++j)
      link(hub_idx[i], hub_idx[j]);
  for (std::size_t i = 0; i < all.size(); ++i) {
    std::vector<std::pair<double, std::size_t>> by_dist;
    for (std::size_t j = 0; j < all.size(); ++j) {
      if (j == i) continue;
      by_dist.emplace_back(
          geo::haversine_km(all[i].location, all[j].location), j);
    }
    std::sort(by_dist.begin(), by_dist.end());
    for (std::size_t k = 0; k < by_dist.size() && k < 3; ++k)
      link(i, by_dist[k].second);
    std::vector<std::pair<double, std::size_t>> hubs_by_dist;
    for (const auto h : hub_idx) {
      if (h == i) continue;
      hubs_by_dist.emplace_back(
          geo::haversine_km(all[i].location, all[h].location), h);
    }
    std::sort(hubs_by_dist.begin(), hubs_by_dist.end());
    for (std::size_t k = 0; k < hubs_by_dist.size() && k < 2; ++k)
      link(i, hubs_by_dist[k].second);
  }

  // Each datacenter sits behind its own edge router so per-ISP middleboxes
  // (Russian censors) can differ within one city.
  datacenters_.reserve(kDatacenters.size());
  for (std::size_t i = 0; i < kDatacenters.size(); ++i) {
    const auto& spec = kDatacenters[i];
    Datacenter dc;
    dc.id = std::string(spec.id);
    dc.hosting_provider = std::string(spec.provider);
    dc.city = require_city(spec.city);
    const auto pool = netsim::Cidr::parse(spec.pool);
    if (!pool) throw std::logic_error("bad pool " + std::string(spec.pool));
    dc.pool4 = *pool;
    dc.pool6 = datacenter_v6_pool(i);
    dc.asn = spec.asn;
    dc.registered_country = std::string(dc.city.country_code);
    dc.known_vpn_hosting = spec.known_vpn_hosting;
    dc.router = static_cast<netsim::RouterId>(router_names_.size());
    router_names_.push_back("dc:" + dc.id);
    links_.push_back(BackboneLink{dc.router, city_router(spec.city), 0.2});
    datacenters_.push_back(std::move(dc));
  }

  // The plane of the core: a scratch network replays the fabric exactly as
  // a World does, so every World's link lists match it.
  util::SimClock clock;
  netsim::Network net(clock, util::Rng(0));
  for (const auto& name : router_names_) (void)net.add_router(name);
  for (const auto& l : links_) net.add_link(l.a, l.b, l.latency_ms);
  plane_ = net.routing_plane();
}

netsim::RouterId WorldBase::city_router(std::string_view city) const {
  const auto all = geo::cities();
  for (std::size_t i = 0; i < all.size(); ++i)
    if (all[i].name == city) return static_cast<netsim::RouterId>(i);
  throw std::logic_error("unknown city " + std::string(city));
}

Datacenter& WorldBase::datacenter(std::string_view id) {
  for (auto& dc : datacenters_)
    if (dc.id == id) return dc;
  throw std::logic_error("unknown datacenter " + std::string(id));
}

InfraHost& WorldBase::place(InfraHost::Role role, std::string name,
                            netsim::IpAddr addr4, netsim::RouterId router,
                            double access_latency_ms) {
  InfraHost& h = hosts_.emplace_back();
  h.role = role;
  h.name = std::move(name);
  h.addr4 = addr4;
  h.router = router;
  h.access_latency_ms = access_latency_ms;
  return h;
}

InfraHost& WorldBase::place_server(Datacenter& dc, InfraHost::Role role,
                                   std::string name, bool with_v6) {
  const auto addr4 = dc.allocate();
  auto& h = place(role, std::move(name), addr4, dc.router, 0.25);
  if (with_v6) h.addr6 = dc.v6_for(addr4);
  return h;
}

void WorldBase::publish_dns(std::string_view hostname, const netsim::IpAddr& a,
                            std::optional<netsim::IpAddr> aaaa) {
  dns::ZoneRecord rec;
  rec.a = {a};
  if (aaaa) rec.aaaa = {*aaaa};
  (*web_records_)[dns::canonical_name(hostname)] = std::move(rec);
  zones_->set_authority(http::registered_domain(hostname), web_authority_addr_);
}

void WorldBase::build_dns() {
  using Role = InfraHost::Role;
  google_dns_ = netsim::IpAddr::v4(8, 8, 8, 8);
  quad9_dns_ = netsim::IpAddr::v4(9, 9, 9, 9);
  isp_resolver_ = netsim::IpAddr::v4(71, 80, 0, 1);

  // Authoritative server for every simulated website zone.
  web_authority_addr_ =
      place_server(datacenter("stratalayer-ash"), Role::kWebAuthority,
                   "ns1.webauth")
          .addr4;

  // Logging authority for the tagged probe zone (recursive-origin test).
  const auto probe_addr =
      place_server(datacenter("nodespark-chi"), Role::kProbeAuthority,
                   "ns1.probe-infra")
          .addr4;
  zones_->set_authority(std::string(probe_dns_zone()), probe_addr);

  // Anycast public resolvers.
  const auto deploy_anycast_resolver = [&](const netsim::IpAddr& addr,
                                           std::string_view label,
                                           std::span<const std::string_view> sites) {
    for (const auto city : sites) {
      place(Role::kResolver,
            util::format("%.*s-%.*s", static_cast<int>(label.size()),
                         label.data(), static_cast<int>(city.size()),
                         city.data()),
            addr, city_router(city), 0.3);
    }
  };
  constexpr std::array<std::string_view, 8> kGoogleSites = {
      "New York", "Los Angeles", "Frankfurt", "London",
      "Singapore", "Tokyo",      "Sao Paulo", "Sydney"};
  constexpr std::array<std::string_view, 5> kQuad9Sites = {
      "Ashburn", "Amsterdam", "Zurich", "Hong Kong", "Toronto"};
  deploy_anycast_resolver(google_dns_, "gdns", kGoogleSites);
  deploy_anycast_resolver(quad9_dns_, "quad9", kQuad9Sites);

  // The residential ISP's resolver (what an un-tunnelled client uses).
  place(Role::kResolver, "isp-resolver", isp_resolver_, city_router("Chicago"),
        1.0);

  // Root server instances (ping targets for infrastructure inference).
  struct RootSpec {
    char letter;
    netsim::IpAddr addr;
    std::array<std::string_view, 5> sites;
  };
  const std::array<RootSpec, 5> kRoots = {{
      {'D', netsim::IpAddr::v4(199, 7, 91, 13),
       {"New York", "London", "Tokyo", "Sydney", "Frankfurt"}},
      {'E', netsim::IpAddr::v4(192, 203, 230, 10),
       {"Los Angeles", "Singapore", "Amsterdam", "Miami", "Seoul"}},
      {'F', netsim::IpAddr::v4(192, 5, 5, 241),
       {"San Jose", "Paris", "Hong Kong", "Sao Paulo", "Johannesburg"}},
      {'J', netsim::IpAddr::v4(192, 58, 128, 30),
       {"Ashburn", "Stockholm", "Mumbai", "Toronto", "Dubai"}},
      {'L', netsim::IpAddr::v4(199, 7, 83, 42),
       {"Chicago", "Zurich", "Osaka", "Buenos Aires", "Warsaw"}},
  }};
  for (const auto& spec : kRoots) {
    for (const auto city : spec.sites) {
      place(Role::kRoot,
            util::format("%c-root-%.*s", spec.letter,
                         static_cast<int>(city.size()), city.data()),
            spec.addr, city_router(city), 0.3)
          .routed = false;
    }
    roots_.push_back(RootServer{spec.letter, spec.addr});
  }
}

void WorldBase::build_web() {
  using Role = InfraHost::Role;
  // Places the server for `site` and records its content; a chain is
  // issued (next serial) when the site is served on 443 too.
  const auto host_site = [&](InfraHost& host, std::shared_ptr<http::Site> site,
                             std::string_view ca, bool tls,
                             bool blocks_vpn_ranges) {
    host.site = static_cast<std::uint32_t>(sites_.size());
    HostedSite hosted;
    if (tls) {
      hosted.chain = std::make_shared<const tlssim::CertChain>(
          tlssim::issue_chain(site->hostname, ca, cert_serial_++));
    }
    hosted.site = std::move(site);
    hosted.blocks_vpn_ranges = blocks_vpn_ranges;
    sites_.push_back(std::move(hosted));
  };

  // Web hosting uses datacenters near the site's declared hosting city,
  // falling back to Ashburn.
  const auto dc_for_city = [&](std::string_view city) -> Datacenter& {
    for (auto& dc : datacenters_)
      if (dc.city.name == city && !dc.known_vpn_hosting) return dc;
    for (auto& dc : datacenters_)
      if (dc.city.name == city) return dc;
    return datacenter("stratalayer-ash");
  };

  const auto deploy_site = [&](const SiteSpec& spec) {
    auto& host =
        place_server(dc_for_city(spec.hosting_city), Role::kSite,
                     "www." + std::string(spec.hostname), /*with_v6=*/true);
    auto site = std::make_shared<http::Site>();
    site->hostname = std::string(spec.hostname);
    site->https_available = spec.https_available;
    site->upgrades_to_https = spec.upgrades_to_https;
    site->blocks_with_empty_200 = spec.blocks_with_empty_200;
    site->pages["/"] = http::make_basic_page(spec.hostname, spec.hostname,
                                             spec.resource_count);
    for (int i = 0; i < spec.resource_count; ++i) {
      http::Page res;
      res.html = util::format("// resource %d of %s", i,
                              std::string(spec.hostname).c_str());
      site->pages[util::format("/static/res%d.js", i)] = res;
    }
    publish_dns(spec.hostname, host.addr4, host.addr6);
    site_directory_->set_category(std::string(spec.hostname), spec.category);
    host_site(host, std::move(site), "SimTrust Root CA", spec.https_available,
              spec.blocks_vpn_ranges);
  };
  for (const auto& spec : dom_test_sites()) deploy_site(spec);
  for (const auto& spec : tls_scan_sites()) deploy_site(spec);

  // Measurement infrastructure is never censored.
  const auto infra_server = [&](std::string_view dc_id, Role role,
                                std::string_view hostname,
                                std::string name) -> InfraHost& {
    auto& host = place_server(datacenter(dc_id), role, std::move(name));
    publish_dns(hostname, host.addr4);
    site_directory_->set_category(std::string(hostname),
                                  SiteCategory::kInfrastructure);
    return host;
  };

  // Honeysites: static content.
  for (const auto& [hostname, with_ads] :
       {std::pair{honeysite_plain(), false}, std::pair{honeysite_ads(), true}}) {
    auto& host = infra_server("nodespark-chi", Role::kSite, hostname,
                              "www." + std::string(hostname));
    auto site = std::make_shared<http::Site>();
    site->hostname = std::string(hostname);
    site->https_available = false;
    site->pages["/"] = http::make_honeysite_page(hostname, with_ads);
    host_site(host, std::move(site), {}, false, false);
  }

  // The ad network referenced by the honeysite's ad slot must exist, so the
  // loader's fetch of the (invalid-publisher) ad script gets a benign 200.
  {
    auto& host = infra_server("edgeprime-sjc", Role::kSite, "ads.adnet-one.com",
                              "ads.adnet-one.com");
    auto site = std::make_shared<http::Site>();
    site->hostname = "ads.adnet-one.com";
    http::Page noop;
    noop.html = "// invalid publisher; slot intentionally unfilled";
    site->pages["/serve.js?pub=invalid-0000"] = noop;
    host_site(host, std::move(site), {}, false, false);
  }

  // Header reflection, the geolocation API and the STUN-style reflector
  // (their services are per world; see World::build_hosts).
  infra_server("stratalayer-ash", Role::kHeaderEcho, header_echo_host(),
               std::string(header_echo_host()));
  infra_server("edgeprime-sjc", Role::kGeoApi, geo_api_host(),
               std::string(geo_api_host()));
  infra_server("stratalayer-ash", Role::kStun, stun_host(),
               std::string(stun_host()));

  // National block pages referenced by the censors (Table 4 targets).
  struct BlockPage {
    std::string_view host_or_ip;
    std::string_view dc_id;
    bool is_literal;
  };
  const std::array<BlockPage, 11> kBlockPages = {{
      {"195.175.254.2", "anatolia-ist", true},
      {"www.warning.or.kr", "hanriver-sel", false},
      {"fz139.ttk.ru", "ttk-mow", false},
      {"zapret.hoztnode.net", "hzt-mow", false},
      {"warning.rt.ru", "rt-led", false},
      {"blocked.mts.ru", "mts-led", false},
      {"block.dtln.ru", "dtln-nsk", false},
      {"blackhole.beeline.ru", "beeline-mow", false},
      {"www.ziggo.nl", "hosteu-ams", false},
      {"213.46.185.10", "upclink-ams", true},
      {"103.77.116.101", "siam-bkk", true},
  }};
  for (const auto& bp : kBlockPages) {
    auto& dc = datacenter(bp.dc_id);
    const auto addr = bp.is_literal ? *netsim::IpAddr::parse(bp.host_or_ip)
                                    : dc.allocate();
    auto& host = place(Role::kSite, "blockpage." + std::string(bp.host_or_ip),
                       addr, dc.router, 0.25);
    auto site = std::make_shared<http::Site>();
    site->hostname = std::string(bp.host_or_ip);
    http::Page page;
    page.html = util::format(
        "<html><body><h1>Access to this resource is restricted</h1>"
        "<p>Served by %s</p></body></html>",
        std::string(bp.host_or_ip).c_str());
    site->pages["/"] = page;
    if (!bp.is_literal) publish_dns(bp.host_or_ip, addr);
    site_directory_->set_category(std::string(bp.host_or_ip),
                                  SiteCategory::kInfrastructure);
    // ziggo.nl's block page is served over HTTPS.
    host_site(host, std::move(site), "GlobalCert Root",
              bp.host_or_ip == "www.ziggo.nl", false);
  }
}

void WorldBase::build_anchors() {
  // 50 anchors spread across the city table (every other city).
  const auto all = geo::cities();
  std::uint8_t next = 10;
  for (std::size_t i = 0; i < all.size() && anchors_.size() < 50; i += 2) {
    const auto& c = all[i];
    const auto addr = netsim::IpAddr::v4(193, 0, 14, next++);
    place(InfraHost::Role::kAnchor, "anchor-" + std::string(c.name), addr,
          static_cast<netsim::RouterId>(i), 0.4)
        .routed = false;
    anchors_.push_back(Anchor{std::string(c.name), c, addr});
  }
}

std::uint64_t WorldBase::fingerprint() const {
  std::string canon;
  const auto field = [&canon](std::string_view v) {
    canon.append(v);
    canon.push_back('\x1f');
  };
  const auto num = [&field](auto v) { field(std::to_string(v)); };
  const auto real = [&num](double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    num(bits);
  };
  const auto addr = [&field](const std::optional<netsim::IpAddr>& a) {
    field(a ? a->str() : "-");
  };

  for (const auto& name : router_names_) field(name);
  for (const auto& l : links_) {
    num(l.a);
    num(l.b);
    real(l.latency_ms);
  }
  for (const auto& dc : datacenters_) {
    field(dc.id);
    field(dc.hosting_provider);
    field(dc.city.name);
    field(dc.pool4.str());
    field(dc.pool6 ? dc.pool6->str() : "-");
    num(dc.asn);
    field(dc.registered_country);
    num(dc.router);
    num(dc.next_host);
    num(static_cast<int>(dc.known_vpn_hosting));
  }
  for (const auto& h : hosts_) {
    num(static_cast<int>(h.role));
    field(h.name);
    addr(h.addr4);
    addr(h.addr6);
    num(h.router);
    real(h.access_latency_ms);
    num(static_cast<int>(h.routed));
    num(h.site);
  }
  for (const auto& hosted : sites_) {
    const auto& site = *hosted.site;
    field(site.hostname);
    num(static_cast<int>(site.https_available));
    num(static_cast<int>(site.upgrades_to_https));
    num(static_cast<int>(site.blocks_with_empty_200));
    num(static_cast<int>(hosted.blocks_vpn_ranges));
    for (const auto& [path, page] : site.pages) {
      field(path);
      field(page.html);
      for (const auto& res : page.resources) field(res);
    }
    field(hosted.chain ? hosted.chain->encode() : "-");
  }
  for (const auto& a : anchors_) {
    field(a.name);
    addr(a.addr);
  }
  for (const auto& r : roots_) {
    field(std::string_view(&r.letter, 1));
    addr(r.addr);
  }
  for (const auto& [zone, server] : zones_->zones()) {
    field(zone);
    addr(server);
  }
  std::vector<const dns::AuthoritativeService::RecordMap::value_type*> records;
  records.reserve(web_records_->size());
  for (const auto& entry : *web_records_) records.push_back(&entry);
  std::sort(records.begin(), records.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  for (const auto* entry : records) {
    const auto& [name, rec] = *entry;
    field(name);
    for (const auto& a : rec.a) addr(a);
    for (const auto& a : rec.aaaa) addr(a);
    for (const auto& t : rec.txt) field(t);
  }
  for (const auto& [host, category] : site_directory_->categories()) {
    field(host);
    num(static_cast<int>(category));
  }
  return util::fnv1a(canon);
}

}  // namespace vpna::inet
