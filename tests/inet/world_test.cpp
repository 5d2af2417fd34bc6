#include "inet/world.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <future>

#include "dns/client.h"
#include "http/client.h"
#include "util/task_pool.h"

namespace vpna::inet {
namespace {

// One world per suite: construction is the expensive part.
World& world() {
  static World w(20180131);
  return w;
}

TEST(World, BackboneConnectsAllCities) {
  auto& w = world();
  // Ping between hosts in far-apart cities must work and respect physics.
  auto& ny = w.spawn_client("New York", "probe-ny");
  auto& syd = w.spawn_client("Sydney", "probe-syd");
  const auto lat = w.network().base_latency_ms(ny, syd);
  ASSERT_TRUE(lat.has_value());
  const auto min_possible =
      geo::min_rtt_ms(geo::city_by_name("New York")->location,
                      geo::city_by_name("Sydney")->location) /
      2;
  EXPECT_GE(*lat, min_possible);
  EXPECT_LT(*lat, 400.0);  // sane upper bound
}

TEST(World, DatacentersCoverPaperCountries) {
  auto& w = world();
  for (const char* cc : {"US", "GB", "DE", "NL", "RU", "TR", "KR", "TH", "NO",
                         "LU", "IN", "MX", "CH", "IE", "MY", "SG"}) {
    EXPECT_TRUE(std::any_of(
        w.datacenters().begin(), w.datacenters().end(),
        [cc](const Datacenter& dc) { return dc.city.country_code == cc; }))
        << cc;
  }
  EXPECT_GE(w.datacenters().size(), 40u);
}

TEST(World, Table5BlocksExist) {
  auto& w = world();
  // The shared-infrastructure blocks from the paper's Table 5.
  struct Expect {
    const char* block;
    std::uint32_t asn;
    const char* cc;
  };
  for (const auto& e : std::vector<Expect>{{"82.102.27.0/24", 9009, "NO"},
                                           {"94.242.192.0/18", 5577, "LU"},
                                           {"139.59.0.0/18", 14061, "IN"},
                                           {"169.57.0.0/17", 36351, "MX"},
                                           {"179.43.128.0/18", 51852, "CH"},
                                           {"185.108.128.0/22", 30900, "IE"},
                                           {"202.176.4.0/24", 55720, "MY"},
                                           {"209.58.176.0/21", 59253, "SG"}}) {
    const auto rec = w.whois().lookup(netsim::Cidr::parse(e.block)->host_at(20));
    ASSERT_TRUE(rec.has_value()) << e.block;
    EXPECT_EQ(rec->asn, e.asn) << e.block;
    EXPECT_EQ(rec->country_code, e.cc) << e.block;
  }
}

TEST(World, SpawnServerAllocatesFromPool) {
  auto& w = world();
  auto* dc = w.datacenter_by_id("gigacloud-osl");
  ASSERT_NE(dc, nullptr);
  auto& s1 = w.spawn_server(*dc, "srv-a");
  auto& s2 = w.spawn_server(*dc, "srv-b");
  const auto a1 = s1.primary_addr(netsim::IpFamily::kV4);
  const auto a2 = s2.primary_addr(netsim::IpFamily::kV4);
  ASSERT_TRUE(a1 && a2);
  EXPECT_NE(*a1, *a2);
  EXPECT_TRUE(dc->pool4.contains(*a1));
  EXPECT_TRUE(dc->pool4.contains(*a2));
}

TEST(World, TenantSliceOverflowThrows) {
  // A tenant's /24 slice holds offsets 10-255: 246 servers. The 247th
  // would take the first address of the next tenant's slice.
  World w(20180131);
  auto* dc = w.datacenter_by_id("ttk-mow");
  ASSERT_NE(dc, nullptr);
  ASSERT_TRUE(dc->sliced());
  const auto slice_of = [](const netsim::Host& h) {
    return h.primary_addr(netsim::IpFamily::kV4)->v4_value() >> 8;
  };
  const auto first =
      slice_of(w.spawn_server(*dc, "tenant-srv-0", false, "TenantVPN"));
  for (int i = 1; i < 246; ++i)
    EXPECT_EQ(slice_of(w.spawn_server(*dc, "tenant-srv-" + std::to_string(i),
                                      false, "TenantVPN")),
              first);
  const auto hosts = w.host_count();
  EXPECT_THROW(w.spawn_server(*dc, "tenant-srv-246", false, "TenantVPN"),
               std::logic_error);
  EXPECT_EQ(w.host_count(), hosts);  // no host left behind
  // Another tenant still gets a slice of its own.
  EXPECT_NE(slice_of(w.spawn_server(*dc, "other-srv", false, "OtherVPN")),
            first);
}

TEST(World, SharedAllocationStaysInSliceZero) {
  // In a sliced pool the shared cursor owns slice 0 alone; running past
  // offset 255 would hand out slice 1, which tenants rent.
  World w(20180131);
  auto* dc = w.datacenter_by_id("ttk-mow");
  ASSERT_NE(dc, nullptr);
  ASSERT_TRUE(dc->sliced());
  int spawned = 0;
  while (dc->next_host <= 255) {
    const auto addr = w.spawn_server(*dc, "shared-" + std::to_string(spawned++))
                          .primary_addr(netsim::IpFamily::kV4);
    ASSERT_TRUE(addr.has_value());
    EXPECT_EQ(addr->v4_value() >> 8, dc->pool4.network().v4_value() >> 8);
  }
  EXPECT_GT(spawned, 200);
  EXPECT_THROW(w.spawn_server(*dc, "shared-overflow"), std::logic_error);
}

TEST(World, PublicResolversResolveTestSites) {
  auto& w = world();
  auto& client = w.spawn_client("Chicago", "probe-dns");
  for (const auto& resolver : {w.google_dns(), w.quad9_dns(), w.isp_resolver()}) {
    const auto res = dns::query(w.network(), client, resolver,
                                "daily-courier-news.com", dns::RrType::kA);
    EXPECT_TRUE(res.ok()) << resolver.str();
  }
}

TEST(World, AnycastResolverIsNearby) {
  auto& w = world();
  auto& tokyo_client = w.spawn_client("Tokyo", "probe-tokyo");
  auto& ny_client = w.spawn_client("New York", "probe-nyc2");
  const auto rtt_tokyo = w.network().ping(tokyo_client, w.google_dns());
  const auto rtt_ny = w.network().ping(ny_client, w.google_dns());
  ASSERT_TRUE(rtt_tokyo && rtt_ny);
  // Both should hit a local replica: far lower than trans-Pacific RTT.
  EXPECT_LT(*rtt_tokyo, 60.0);
  EXPECT_LT(*rtt_ny, 60.0);
}

TEST(World, RootServersPingable) {
  auto& w = world();
  auto& client = w.spawn_client("Frankfurt", "probe-fra");
  EXPECT_EQ(w.root_servers().size(), 5u);
  for (const auto& root : w.root_servers()) {
    const auto rtt = w.network().ping(client, root.addr);
    ASSERT_TRUE(rtt.has_value()) << root.letter;
    EXPECT_LT(*rtt, 80.0) << root.letter;  // always a replica in Europe
  }
}

TEST(World, ProbeZoneLogsResolverOrigin) {
  auto& w = world();
  auto& client = w.spawn_client("Chicago", "probe-orig");
  const auto before = w.probe_authority().query_log().size();
  const std::string name = "tag-worldtest.rdns.probe-infra.net";
  const auto res =
      dns::query(w.network(), client, w.google_dns(), name, dns::RrType::kA);
  ASSERT_TRUE(res.ok());
  const auto& log = w.probe_authority().query_log();
  ASSERT_EQ(log.size(), before + 1);
  EXPECT_EQ(log.back().name, name);
  // The authority saw the resolver (8.8.8.8), not the stub client.
  EXPECT_EQ(log.back().source, w.google_dns());
}

TEST(World, WebSitesServePages) {
  auto& w = world();
  auto& client = w.spawn_client("Chicago", "probe-web");
  http::HttpClient c(w.network(), client);
  const auto res = c.fetch("http://daily-courier-news.com/");
  ASSERT_TRUE(res.ok());
  EXPECT_NE(res.body.find("daily-courier-news.com"), std::string::npos);
}

TEST(World, PageLoadsIncludeSubResources) {
  auto& w = world();
  auto& client = w.spawn_client("Chicago", "probe-web2");
  http::HttpClient c(w.network(), client);
  const auto load = c.load_page("http://daily-courier-news.com/");
  ASSERT_TRUE(load.document.ok());
  EXPECT_EQ(load.resources.size(), 4u);
  for (const auto& r : load.resources) EXPECT_TRUE(r.ok());
}

TEST(World, TlsSitesPresentValidChains) {
  auto& w = world();
  auto& client = w.spawn_client("Chicago", "probe-tls");
  const auto res = dns::query(w.network(), client, w.google_dns(),
                              "tls-portal-5.com", dns::RrType::kA);
  ASSERT_TRUE(res.ok());
  const auto hs = tlssim::tls_handshake(w.network(), client, res.addresses[0],
                                        "tls-portal-5.com", w.ca_store(),
                                        w.chain_memo());
  ASSERT_TRUE(hs.completed());
  EXPECT_EQ(hs.validation, tlssim::ValidationStatus::kValid);
  // And the leaf is the certificate the world issued for the site.
  const auto& sites = w.base().sites();
  EXPECT_TRUE(std::any_of(sites.begin(), sites.end(), [&](const auto& site) {
    return site.chain != nullptr &&
           site.chain->leaf()->key_fingerprint ==
               hs.chain->leaf()->key_fingerprint &&
           site.chain->leaf()->matches_host("tls-portal-5.com");
  }));
}

// Each world decodes chains through its own memo: handshakes in one world
// share a chain, handshakes in two worlds never do.
TEST(World, ChainMemoIsPerWorld) {
  World a(20180131);
  World b(20180131);
  const auto handshake = [](World& w, netsim::Host& client) {
    const auto res = dns::query(w.network(), client, w.google_dns(),
                                "tls-portal-5.com", dns::RrType::kA);
    EXPECT_TRUE(res.ok());
    if (!res.ok() || res.addresses.empty()) return tlssim::HandshakeResult{};
    return tlssim::tls_handshake(w.network(), client, res.addresses[0],
                                 "tls-portal-5.com", w.ca_store(),
                                 w.chain_memo());
  };
  auto& ca = a.spawn_client("Chicago", "memo-a");
  auto& cb = b.spawn_client("Chicago", "memo-b");
  const auto a1 = handshake(a, ca);
  const auto a2 = handshake(a, ca);
  const auto b1 = handshake(b, cb);
  ASSERT_TRUE(a1.completed() && a2.completed() && b1.completed());
  EXPECT_EQ(a1.chain, a2.chain);
  EXPECT_NE(a1.chain, b1.chain);
  EXPECT_EQ(a1.chain->encode(), b1.chain->encode());
  EXPECT_EQ(a.chain_memo().size(), 1u);
  EXPECT_EQ(b.chain_memo().size(), 1u);
}

TEST(World, HttpsUpgradeSitesRedirect) {
  auto& w = world();
  auto& client = w.spawn_client("Chicago", "probe-upg");
  http::HttpClient c(w.network(), client);
  // tls-cloud-1.com has index 1: upgrades (1 % 3 != 0).
  const auto res = c.fetch("http://tls-cloud-1.com/");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.final_url.scheme, "https");
}

TEST(World, HoneysitesAreStatic) {
  auto& w = world();
  auto& client = w.spawn_client("Chicago", "probe-honey");
  http::HttpClient c(w.network(), client);
  const auto a = c.fetch("http://" + std::string(honeysite_plain()) + "/");
  const auto b = c.fetch("http://" + std::string(honeysite_plain()) + "/");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.body, b.body);
  EXPECT_EQ(a.body, w.page_for(honeysite_plain())->html);

  const auto ads = c.load_page("http://" + std::string(honeysite_ads()) + "/");
  ASSERT_TRUE(ads.document.ok());
  EXPECT_NE(ads.document.body.find("ad-slot"), std::string::npos);
  // The ad network answers (invalid publisher -> unfilled slot, HTTP 200).
  ASSERT_EQ(ads.resources.size(), 1u);
  EXPECT_TRUE(ads.resources[0].ok());
}

TEST(World, HeaderEchoEndpointWorks) {
  auto& w = world();
  auto& client = w.spawn_client("Chicago", "probe-echo");
  http::HttpClient c(w.network(), client);
  const auto res = c.fetch("http://" + std::string(header_echo_host()) + "/");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.body, http::encode_fetch_request(res.exchanges[0].url, {}));
}

TEST(World, GeoApiLocatesResidentialClient) {
  auto& w = world();
  auto& client = w.spawn_client("Chicago", "probe-geo");
  http::HttpClient c(w.network(), client);
  const auto res = c.fetch("http://" + std::string(geo_api_host()) + "/");
  ASSERT_TRUE(res.ok());
  // The residential range is not registered in the geo registry, so the API
  // answers "not found" — exactly like a fresh, unseen block.
  EXPECT_NE(res.body.find("not found"), std::string::npos);
}

TEST(World, GeoDatabasesAnswerForDatacenterBlocks) {
  auto& w = world();
  const auto addr = netsim::Cidr::parse("82.102.27.0/24")->host_at(20);
  const auto rec = w.db_maxmind().lookup(addr);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->country_code, "NO");
}

TEST(World, VpnBlocklistPropagatesToSites) {
  auto& w = world();
  auto* dc = w.datacenter_by_id("rentweb-sea");
  ASSERT_NE(dc, nullptr);
  auto& egress = w.spawn_server(*dc, "fake-egress");
  w.blocklist_vpn_range(netsim::Cidr(*egress.primary_addr(netsim::IpFamily::kV4), 24));
  egress.dns_servers().push_back(w.google_dns());
  http::HttpClient c(w.network(), egress);
  // tls-portal-0.com blocks VPN ranges (index 0 % 11 == 0).
  const auto res = c.fetch("http://tls-portal-0.com/");
  EXPECT_EQ(res.status, 403);
}

TEST(World, FiftyAnchorsDeployed) {
  auto& w = world();
  EXPECT_EQ(w.anchors().size(), 50u);
  auto& client = w.spawn_client("Chicago", "probe-anchor");
  int reachable = 0;
  for (const auto& a : w.anchors())
    if (w.network().ping(client, a.addr)) ++reachable;
  EXPECT_EQ(reachable, 50);
}

TEST(World, AnchorRttRespectsPhysics) {
  auto& w = world();
  auto& client = w.spawn_client("Chicago", "probe-phys");
  const auto chicago = geo::city_by_name("Chicago")->location;
  for (const auto& a : w.anchors()) {
    const auto rtt = w.network().ping(client, a.addr);
    ASSERT_TRUE(rtt.has_value());
    EXPECT_GE(*rtt + 1e-6, geo::min_rtt_ms(chicago, a.city.location))
        << a.name;
  }
}

TEST(World, CensorsInstalledForFiveCountries) {
  auto& w = world();
  std::set<std::string> countries;
  for (const auto& c : w.censors()) countries.insert(c->policy().country_code);
  EXPECT_EQ(countries, (std::set<std::string>{"TR", "KR", "RU", "NL", "TH"}));
  EXPECT_GE(w.censors().size(), 12u);
}

TEST(World, SelfCheckCleanOnFreshWorld) {
  auto& w = world();
  const auto problems = w.self_check();
  EXPECT_TRUE(problems.empty()) << (problems.empty() ? "" : problems.front());
}

TEST(World, SelfCheckCatchesDetachedInfrastructure) {
  World w(31);
  // Sabotage: remove an anchor host from the network.
  auto* anchor_host =
      w.network().host_by_addr(w.anchors().front().addr);
  ASSERT_NE(anchor_host, nullptr);
  w.network().detach_host(*anchor_host);
  const auto problems = w.self_check();
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("anchor unreachable"), std::string::npos);
}

TEST(World, DeterministicAcrossInstances) {
  World w1(7), w2(7);
  auto& c1 = w1.spawn_client("Chicago", "probe");
  auto& c2 = w2.spawn_client("Chicago", "probe");
  const auto r1 = w1.network().ping(c1, w1.google_dns());
  const auto r2 = w2.network().ping(c2, w2.google_dns());
  ASSERT_TRUE(r1 && r2);
  EXPECT_DOUBLE_EQ(*r1, *r2);
}

TEST(World, ResidentialPoolExhaustionThrows) {
  // The pool is 71.80.0.10 - 71.80.255.255; one more client would wrap onto
  // the ISP resolver's 71.80.0.1 and attach silently as anycast.
  World w(65);
  std::size_t spawned = 0;
  try {
    for (; spawned < 70000; ++spawned) {
      const auto addr = w.spawn_client("Chicago", "eyeball")
                            .primary_addr(netsim::IpFamily::kV4);
      ASSERT_TRUE(addr.has_value());
      ASSERT_NE(*addr, w.isp_resolver()) << "client " << spawned + 1;
    }
    FAIL() << "the residential pool never ran out";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "residential pool exhausted");
  }
  EXPECT_EQ(spawned, 65526u);
  EXPECT_THROW(w.spawn_client("Chicago", "one-more"), std::logic_error);
}

TEST(World, SharedSiteContentIsCopyOnWrite) {
  // Two worlds with different seeds share one base: ordinary sites are the
  // same objects, VPN-blocking sites are per-world copies, so a blocklist
  // written in one world never reaches the other.
  World a(101);
  World b(202);
  ASSERT_EQ(&a.base(), &b.base());
  const auto& sites = a.base().sites();
  const auto plain = std::find_if(sites.begin(), sites.end(), [](const auto& s) {
    return !s.blocks_vpn_ranges;
  });
  ASSERT_NE(plain, sites.end());
  EXPECT_EQ(a.site(plain->site->hostname), plain->site);
  EXPECT_EQ(b.site(plain->site->hostname), plain->site);

  // tls-portal-0.com blocks VPN ranges (index 0 % 11 == 0).
  const std::string streaming = "tls-portal-0.com";
  ASSERT_NE(a.site(streaming), nullptr);
  EXPECT_NE(a.site(streaming), b.site(streaming));

  const auto egress_in = [](World& w) -> netsim::Host& {
    auto& egress = w.spawn_server(*w.datacenter_by_id("rentweb-sea"), "egress");
    egress.dns_servers().push_back(w.google_dns());
    return egress;
  };
  auto& egress_a = egress_in(a);
  auto& egress_b = egress_in(b);
  const auto addr = *egress_a.primary_addr(netsim::IpFamily::kV4);
  // Same layout, so B's egress sits in the very range A blocks.
  ASSERT_EQ(*egress_b.primary_addr(netsim::IpFamily::kV4), addr);
  a.blocklist_vpn_range(netsim::Cidr(addr, 24));
  http::HttpClient ca(a.network(), egress_a);
  http::HttpClient cb(b.network(), egress_b);
  EXPECT_EQ(ca.fetch("http://" + streaming + "/").status, 403);
  EXPECT_EQ(cb.fetch("http://" + streaming + "/").status, 200);
}

TEST(World, FreshBaseMatchesProcessBase) {
  const auto fresh = WorldBase::build();
  const auto shared = WorldBase::shared();
  ASSERT_NE(fresh, shared);
  EXPECT_EQ(fresh->fingerprint(), shared->fingerprint());
  ASSERT_NE(fresh->routing_plane(), shared->routing_plane());
  // A world on the fresh base adopts the process base's plane, and the
  // reverse: the two planes were built over the same links.
  World w(9, shared->routing_plane(), fresh);
  EXPECT_EQ(&w.base(), fresh.get());
  EXPECT_EQ(w.network().routing_plane(), shared->routing_plane());
  World v(9, fresh->routing_plane(), shared);
  EXPECT_EQ(v.network().routing_plane(), fresh->routing_plane());
  // Given no plane, a world routes on its base's.
  World u(9, nullptr, fresh);
  EXPECT_EQ(u.network().routing_plane(), fresh->routing_plane());
}

TEST(World, ForeignPlaneIsRejected) {
  util::SimClock clock;
  netsim::Network other(clock, util::Rng(1));
  other.add_link(other.add_router("a"), other.add_router("b"), 1.0);
  EXPECT_THROW(World(3, other.routing_plane()), std::logic_error);
}

TEST(World, ConcurrentConstructionSharesOneBase) {
  // Eight worlds built and exercised at once, from a cold start when this
  // test runs in its own process: the base's one-time build, the shared
  // zone/record/site tables and the per-world blocking copies all race here.
  util::TaskPool pool(4);
  std::vector<std::future<std::pair<const WorldBase*, int>>> results;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    results.push_back(pool.submit([seed] {
      World w(seed);
      auto& egress =
          w.spawn_server(*w.datacenter_by_id("rentweb-sea"), "egress");
      egress.dns_servers().push_back(w.google_dns());
      w.blocklist_vpn_range(
          netsim::Cidr(*egress.primary_addr(netsim::IpFamily::kV4), 24));
      http::HttpClient c(w.network(), egress);
      const int blocked = c.fetch("http://tls-portal-0.com/").status;
      return std::pair{&w.base(), blocked};
    }));
  }
  for (auto& r : results) {
    const auto [base, status] = r.get();
    EXPECT_EQ(base, WorldBase::shared().get());
    EXPECT_EQ(status, 403);
  }
}

}  // namespace
}  // namespace vpna::inet
