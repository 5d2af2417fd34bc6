#include "dns/server.h"

#include <gtest/gtest.h>

#include "dns/client.h"
#include "util/rng.h"

namespace vpna::dns {
namespace {

// Fixture: client -- r0 --5ms-- r1 hosting a recursive resolver and an
// authoritative server for "example.com" plus a wildcard logging zone.
class DnsFixture : public ::testing::Test {
 protected:
  DnsFixture()
      : net_(clock_, util::Rng(2), 0.0),
        client_("client"),
        resolver_host_("resolver"),
        auth_host_("authority"),
        zones_(std::make_shared<ZoneRegistry>()) {
    const auto r0 = net_.add_router("r0");
    const auto r1 = net_.add_router("r1");
    net_.add_link(r0, r1, 5.0);

    auto setup = [&](netsim::Host& h, netsim::IpAddr addr, netsim::RouterId r) {
      h.add_interface("eth0", addr, std::nullopt);
      h.routes().add(netsim::Route{*netsim::Cidr::parse("0.0.0.0/0"), "eth0",
                                   std::nullopt, 0});
      net_.attach_host(h, r, 0.5);
    };
    setup(client_, netsim::IpAddr::v4(71, 80, 0, 10), r0);
    setup(resolver_host_, netsim::IpAddr::v4(8, 8, 8, 8), r1);
    setup(auth_host_, netsim::IpAddr::v4(45, 0, 0, 53), r1);

    authority_ = std::make_shared<AuthoritativeService>();
    ZoneRecord rec;
    rec.a = {netsim::IpAddr::v4(45, 0, 0, 80)};
    rec.aaaa = {*netsim::IpAddr::parse("2a0e:100::80")};
    authority_->add_record("www.example.com", rec);
    ZoneRecord wild;
    wild.a = {netsim::IpAddr::v4(45, 0, 0, 53)};
    authority_->add_wildcard_zone("rdns.probe.net", wild);
    auth_host_.bind_service(netsim::Proto::kUdp, netsim::kPortDns, authority_);

    zones_->set_authority("example.com", netsim::IpAddr::v4(45, 0, 0, 53));
    zones_->set_authority("rdns.probe.net", netsim::IpAddr::v4(45, 0, 0, 53));
    resolver_ = std::make_shared<RecursiveResolverService>(zones_);
    resolver_host_.bind_service(netsim::Proto::kUdp, netsim::kPortDns,
                                resolver_);

    client_.dns_servers().push_back(netsim::IpAddr::v4(8, 8, 8, 8));
  }

  util::SimClock clock_;
  netsim::Network net_;
  netsim::Host client_;
  netsim::Host resolver_host_;
  netsim::Host auth_host_;
  std::shared_ptr<ZoneRegistry> zones_;
  std::shared_ptr<AuthoritativeService> authority_;
  std::shared_ptr<RecursiveResolverService> resolver_;
};

TEST_F(DnsFixture, ZoneRegistryLongestSuffix) {
  zones_->set_authority("sub.example.com", netsim::IpAddr::v4(1, 1, 1, 1));
  EXPECT_EQ(zones_->authority_for("www.sub.example.com")->str(), "1.1.1.1");
  EXPECT_EQ(zones_->authority_for("www.example.com")->str(), "45.0.0.53");
  EXPECT_FALSE(zones_->authority_for("other.net").has_value());
}

TEST_F(DnsFixture, RecursiveResolutionReturnsARecord) {
  const auto res = query(net_, client_, netsim::IpAddr::v4(8, 8, 8, 8),
                         "www.example.com", RrType::kA);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res.addresses.size(), 1u);
  EXPECT_EQ(res.addresses[0].str(), "45.0.0.80");
}

TEST_F(DnsFixture, RecursiveResolutionAaaa) {
  const auto res = query(net_, client_, netsim::IpAddr::v4(8, 8, 8, 8),
                         "www.example.com", RrType::kAaaa);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res.addresses.size(), 1u);
  EXPECT_TRUE(res.addresses[0].is_v6());
}

TEST_F(DnsFixture, NxDomainForUnknownName) {
  const auto res = query(net_, client_, netsim::IpAddr::v4(8, 8, 8, 8),
                         "missing.example.com", RrType::kA);
  EXPECT_TRUE(res.error.answered());  // delivered; failure is upstream
  EXPECT_EQ(res.error.kind, transport::ErrorKind::kUpstream);
  EXPECT_EQ(res.rcode, Rcode::kNxDomain);
}

TEST_F(DnsFixture, NxDomainForUnknownZone) {
  const auto res = query(net_, client_, netsim::IpAddr::v4(8, 8, 8, 8),
                         "www.unknown-zone.org", RrType::kA);
  EXPECT_EQ(res.rcode, Rcode::kNxDomain);
}

TEST_F(DnsFixture, AuthorityLogsResolverAddressNotClient) {
  // The crux of the recursive-origin test: the authoritative server must
  // see the recursive resolver's address, not the stub client's.
  (void)query(net_, client_, netsim::IpAddr::v4(8, 8, 8, 8),
              "tag-123.rdns.probe.net", RrType::kA);
  ASSERT_EQ(authority_->query_log().size(), 1u);
  EXPECT_EQ(authority_->query_log()[0].source.str(), "8.8.8.8");
  EXPECT_EQ(authority_->query_log()[0].name, "tag-123.rdns.probe.net");
}

TEST_F(DnsFixture, WildcardZoneAnswersAnyLabel) {
  for (const char* name : {"a.rdns.probe.net", "b.c.rdns.probe.net"}) {
    const auto res =
        query(net_, client_, netsim::IpAddr::v4(8, 8, 8, 8), name, RrType::kA);
    EXPECT_TRUE(res.ok()) << name;
  }
}

TEST_F(DnsFixture, OverrideHookHijacksResolution) {
  resolver_->set_override(
      [](std::string_view name, RrType) -> std::optional<ZoneRecord> {
        if (name == "www.example.com") {
          ZoneRecord forged;
          forged.a = {netsim::IpAddr::v4(6, 6, 6, 6)};
          return forged;
        }
        return std::nullopt;
      });
  const auto hijacked = query(net_, client_, netsim::IpAddr::v4(8, 8, 8, 8),
                              "www.example.com", RrType::kA);
  ASSERT_TRUE(hijacked.ok());
  EXPECT_EQ(hijacked.addresses[0].str(), "6.6.6.6");
  // Hijacked answers never reach the authority.
  EXPECT_TRUE(authority_->query_log().empty());

  // Non-overridden names still resolve honestly.
  const auto honest = query(net_, client_, netsim::IpAddr::v4(8, 8, 8, 8),
                            "tag.rdns.probe.net", RrType::kA);
  EXPECT_TRUE(honest.ok());
  EXPECT_EQ(authority_->query_log().size(), 1u);
}

TEST_F(DnsFixture, ResolveSystemUsesConfiguredServer) {
  const auto res = resolve_system(net_, client_, "www.example.com", RrType::kA);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.server.str(), "8.8.8.8");
}

TEST_F(DnsFixture, ResolveSystemFailsWithNoServers) {
  client_.dns_servers().clear();
  const auto res = resolve_system(net_, client_, "www.example.com", RrType::kA);
  EXPECT_FALSE(res.ok());
}

TEST_F(DnsFixture, ResolveSystemFallsBackToSecondServer) {
  client_.dns_servers().insert(client_.dns_servers().begin(),
                               netsim::IpAddr::v4(203, 0, 113, 1));  // dead
  const auto res = resolve_system(net_, client_, "www.example.com", RrType::kA);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.server.str(), "8.8.8.8");
}

TEST_F(DnsFixture, ServFailWhenAuthorityUnreachable) {
  net_.detach_host(auth_host_);
  const auto res = query(net_, client_, netsim::IpAddr::v4(8, 8, 8, 8),
                         "www.example.com", RrType::kA);
  EXPECT_TRUE(res.error.answered());  // resolver answered with SERVFAIL
  EXPECT_EQ(res.error.kind, transport::ErrorKind::kUpstream);
  EXPECT_EQ(res.rcode, Rcode::kServFail);
}

TEST_F(DnsFixture, QueryLogTimestampsAdvance) {
  (void)query(net_, client_, netsim::IpAddr::v4(8, 8, 8, 8),
              "one.rdns.probe.net", RrType::kA);
  (void)query(net_, client_, netsim::IpAddr::v4(8, 8, 8, 8),
              "two.rdns.probe.net", RrType::kA);
  ASSERT_EQ(authority_->query_log().size(), 2u);
  EXPECT_LT(authority_->query_log()[0].time, authority_->query_log()[1].time);
}

// The reference semantics of ZoneRegistry::authority_for: scan every zone,
// keep the longest one the canonical name falls in.
std::optional<netsim::IpAddr> linear_authority(const ZoneRegistry& registry,
                                               std::string_view name) {
  const std::string n = canonical_name(name);
  std::size_t best_len = 0;
  std::optional<netsim::IpAddr> best;
  for (const auto& [zone, server] : registry.zones()) {
    if (!in_zone(n, zone)) continue;
    if (!best || zone.size() > best_len) {
      best_len = zone.size();
      best = server;
    }
  }
  return best;
}

TEST(ZoneRegistryLookup, MatchesLinearScanOnEdgeCases) {
  ZoneRegistry registry;
  registry.set_authority("example.com", netsim::IpAddr::v4(1, 0, 0, 1));
  registry.set_authority("sub.example.com", netsim::IpAddr::v4(1, 0, 0, 2));
  registry.set_authority("a.sub.example.com", netsim::IpAddr::v4(1, 0, 0, 3));
  registry.set_authority("Probe.NET.", netsim::IpAddr::v4(1, 0, 0, 4));
  registry.set_authority("org", netsim::IpAddr::v4(1, 0, 0, 5));
  const struct {
    const char* name;
    const char* want;  // nullptr: no zone
  } cases[] = {
      {"example.com", "1.0.0.1"},          // equal to a zone
      {"www.example.com", "1.0.0.1"},
      {"sub.example.com", "1.0.0.2"},      // nested zone, equal
      {"x.sub.example.com", "1.0.0.2"},
      {"b.a.sub.example.com", "1.0.0.3"},  // innermost of three
      {"badexample.com", nullptr},         // suffix, not a label boundary
      {"xsub.example.com", "1.0.0.1"},
      {"WWW.Example.COM.", "1.0.0.1"},     // mixed case, trailing dot
      {"probe.net", "1.0.0.4"},            // zone registered mixed case
      {"rdns.PROBE.net.", "1.0.0.4"},
      {"wikipedia.org", "1.0.0.5"},
      {"org", "1.0.0.5"},
      {"example.net", nullptr},
      {"com", nullptr},
      {"", nullptr},
      {".", nullptr},
  };
  for (const auto& c : cases) {
    const auto got = registry.authority_for(c.name);
    EXPECT_EQ(got, linear_authority(registry, c.name)) << c.name;
    if (c.want == nullptr) {
      EXPECT_FALSE(got.has_value()) << c.name;
    } else {
      ASSERT_TRUE(got.has_value()) << c.name;
      EXPECT_EQ(got->str(), c.want) << c.name;
    }
  }
}

TEST(ZoneRegistryLookup, MatchesLinearScanOnRandomNames) {
  // Few, short labels so names often collide with zones, nest inside
  // several of them, or share a non-label suffix ("xcom" vs "com").
  const std::vector<std::string> labels = {"a", "b", "com", "xcom", "Ex",
                                           "ex", "NET", "b-a", ""};
  util::Rng rng(20181031);
  auto random_name = [&](int max_labels) {
    std::string n;
    const auto count = rng.uniform_int(1, max_labels);
    for (std::int64_t i = 0; i < count; ++i) {
      if (i != 0) n += '.';
      n += labels[rng.index(labels.size())];
    }
    if (rng.chance(0.2)) n += '.';
    return n;
  };
  for (int round = 0; round < 50; ++round) {
    ZoneRegistry registry;
    const auto zone_count = rng.uniform_int(0, 12);
    for (std::int64_t z = 0; z < zone_count; ++z)
      registry.set_authority(random_name(3),
                             netsim::IpAddr::v4(10, 0, 0,
                                                static_cast<std::uint8_t>(z)));
    for (int q = 0; q < 200; ++q) {
      const auto name = random_name(5);
      EXPECT_EQ(registry.authority_for(name), linear_authority(registry, name))
          << "round " << round << " name '" << name << "'";
    }
  }
}

}  // namespace
}  // namespace vpna::dns
