// The browser host cache (dns::resolve_browser over netsim::HostCache): a
// repeat lookup inside Chrome's 60 s lifetime stays off the wire, a VPN
// connect or disconnect sends the next lookup to the new resolver, failures
// are never cached, and the probes that exist to put queries on the wire
// (the DNS-leak test) see exactly the traffic they would see without it.
#include <gtest/gtest.h>

#include "core/runner.h"
#include "dns/client.h"
#include "http/client.h"
#include "vpn/client.h"
#include "vpn/server.h"

namespace vpna::core {
namespace {

constexpr char kSite[] = "daily-courier-news.com";

// Outbound DNS queries in the client capture since `mark`, counting the
// packet the resolver receives (the inner one when tunnelled), optionally
// only those addressed to `server`.
int dns_queries_since(const netsim::Host& client, std::size_t mark,
                      std::optional<netsim::IpAddr> server = std::nullopt) {
  int n = 0;
  const auto& records = client.capture().records();
  for (std::size_t i = mark; i < records.size(); ++i) {
    const auto& rec = records[i];
    if (rec.direction != netsim::Direction::kOut || rec.encapsulated) continue;
    if (rec.packet.proto != netsim::Proto::kUdp ||
        rec.packet.dst_port != netsim::kPortDns)
      continue;
    if (server && rec.packet.dst != *server) continue;
    ++n;
  }
  return n;
}

class HostCacheTest : public ::testing::Test {
 protected:
  HostCacheTest()
      : tb_(ecosystem::build_testbed_subset({"NordVPN", "Freedome VPN"})) {}

  dns::LookupResult browse(std::string_view name = kSite) {
    return dns::resolve_browser(tb_.world->network(), *tb_.client, name,
                                dns::RrType::kA);
  }
  std::size_t mark() const { return tb_.client->capture().records().size(); }
  std::unique_ptr<vpn::VpnClient> connect(std::string_view provider) {
    const auto* p = tb_.provider(provider);
    EXPECT_NE(p, nullptr);
    auto client = std::make_unique<vpn::VpnClient>(tb_.world->network(),
                                                   *tb_.client, p->spec, 1);
    EXPECT_TRUE(client->connect(p->vantage_points.at(0).addr).connected);
    return client;
  }

  ecosystem::Testbed tb_;
};

TEST_F(HostCacheTest, RepeatWithinLifetimeStaysOffTheWire) {
  const auto start = mark();
  const auto first = browse();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(dns_queries_since(*tb_.client, start), 1);

  tb_.world->clock().advance_seconds(59);
  const auto second = browse();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.addresses, first.addresses);
  EXPECT_EQ(second.server, first.server);
  EXPECT_EQ(dns_queries_since(*tb_.client, start), 1);

  // 60 s after the answer arrived the entry is gone.
  tb_.world->clock().advance_seconds(2);
  ASSERT_TRUE(browse().ok());
  EXPECT_EQ(dns_queries_since(*tb_.client, start), 2);

  // The stub resolver itself is never cached.
  ASSERT_TRUE(dns::resolve_system(tb_.world->network(), *tb_.client, kSite,
                                  dns::RrType::kA)
                  .ok());
  EXPECT_EQ(dns_queries_since(*tb_.client, start), 3);
}

TEST_F(HostCacheTest, PageLoadsFromTwoClientsShareIt) {
  http::HttpClient a(tb_.world->network(), *tb_.client);
  http::HttpClient b(tb_.world->network(), *tb_.client);
  const std::string url = std::string("http://") + kSite + "/";
  const auto start = mark();
  ASSERT_TRUE(a.fetch(url).ok());
  ASSERT_TRUE(b.fetch(url).ok());
  EXPECT_EQ(dns_queries_since(*tb_.client, start), 1);
}

TEST_F(HostCacheTest, ConnectAndDisconnectSendTheNextLookupToTheNewResolver) {
  ASSERT_TRUE(browse().ok());
  const auto isp = tb_.world->isp_resolver();

  auto vpn = connect("NordVPN");  // rewrites the resolver list
  auto start = mark();
  const auto tunnelled = browse();
  ASSERT_TRUE(tunnelled.ok());
  EXPECT_EQ(tunnelled.server, vpn::tunnel_gateway_addr());
  EXPECT_EQ(dns_queries_since(*tb_.client, start, vpn::tunnel_gateway_addr()),
            1);
  EXPECT_EQ(dns_queries_since(*tb_.client, start), 1);

  vpn->disconnect();
  start = mark();
  const auto physical = browse();
  ASSERT_TRUE(physical.ok());
  EXPECT_EQ(physical.server, isp);
  EXPECT_EQ(dns_queries_since(*tb_.client, start, isp), 1);
}

TEST_F(HostCacheTest, RouteChangesAloneStillEmptyIt) {
  ASSERT_TRUE(browse().ok());
  const auto resolvers = tb_.client->dns_servers();
  // Freedome keeps the resolver list and adds routes: the lookup still
  // goes back on the wire (and leaks on eth0).
  auto vpn = connect("Freedome VPN");
  ASSERT_EQ(tb_.client->dns_servers(), resolvers);
  const auto start = mark();
  ASSERT_TRUE(browse().ok());
  EXPECT_EQ(dns_queries_since(*tb_.client, start), 1);
}

TEST_F(HostCacheTest, FailedLookupsAreNotCached) {
  // NXDOMAIN is an answer, but not one worth keeping.
  auto start = mark();
  EXPECT_FALSE(browse("no-such-host.invalid").ok());
  EXPECT_FALSE(browse("no-such-host.invalid").ok());
  EXPECT_EQ(dns_queries_since(*tb_.client, start), 2);

  // A lookup the network dropped is retried on the wire next time. The
  // firewall rule does not touch the host's configuration generation.
  netsim::FwRule deny;
  deny.action = netsim::FwAction::kDeny;
  deny.direction = netsim::Direction::kOut;
  deny.remote_addr = tb_.world->isp_resolver();
  deny.label = "drop-dns";
  tb_.client->firewall().add_rule(deny);
  EXPECT_FALSE(browse().ok());
  tb_.client->firewall().remove_label("drop-dns");
  EXPECT_EQ(tb_.client->host_cache().size(), 0u);
  start = mark();
  EXPECT_TRUE(browse().ok());
  EXPECT_EQ(dns_queries_since(*tb_.client, start), 1);
  EXPECT_EQ(tb_.client->host_cache().size(), 1u);
}

// The leak test's names overlap the DOM list, so a cache it read would hide
// its queries. Browsing first (the suites, then its own names, so their
// entries are fresh) must change nothing it sees.
TEST(HostCacheLeakTest, BrowsingFirstLeavesTheDnsLeakTestUnchanged) {
  struct Seen {
    DnsLeakResult result;
    int queries_on_wire = 0;
  };
  const auto leak_test = [](bool browse_first) {
    auto tb = ecosystem::build_testbed_subset({"Freedome VPN"});
    const auto* p = tb.provider("Freedome VPN");
    vpn::VpnClient vpn(tb.world->network(), *tb.client, p->spec, 1);
    EXPECT_TRUE(vpn.connect(p->vantage_points.at(0).addr).connected);
    if (browse_first) {
      const GroundTruth truth;
      (void)run_dom_collection_test(*tb.world, *tb.client, truth);
      (void)run_tls_test(*tb.world, *tb.client, truth);
      http::HttpClient browser(tb.world->network(), *tb.client);
      for (const char* name :
           {"daily-courier-news.com", "wikipedia.org", "chatter-square.com",
            "kernel-patch-news.net", "stock-ticker-watch.com"})
        (void)browser.fetch(std::string("http://") + name + "/");
      EXPECT_NE(tb.client->host_cache().find(
                    kSite, static_cast<std::uint16_t>(dns::RrType::kA),
                    tb.world->clock().now()),
                nullptr);
    }
    Seen seen;
    const auto start = tb.client->capture().records().size();
    seen.result = run_dns_leak_test(*tb.world, *tb.client);
    seen.queries_on_wire = dns_queries_since(*tb.client, start);
    return seen;
  };
  const Seen alone = leak_test(false);
  const Seen after = leak_test(true);
  EXPECT_TRUE(alone.result.leaked());
  EXPECT_EQ(alone.queries_on_wire, alone.result.queries_issued);
  EXPECT_EQ(after.queries_on_wire, alone.queries_on_wire);
  EXPECT_EQ(after.result.queries_issued, alone.result.queries_issued);
  EXPECT_EQ(after.result.queries_failed, alone.result.queries_failed);
  EXPECT_EQ(after.result.plaintext_dns_on_physical_interface,
            alone.result.plaintext_dns_on_physical_interface);
  EXPECT_EQ(after.result.leaked(), alone.result.leaked());
}

}  // namespace
}  // namespace vpna::core
