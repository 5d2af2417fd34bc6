// End-to-end tunnel data-path tests: a client in Chicago connected to
// deployed vantage points, exercising DNS/HTTP/ICMP through the tunnel,
// NAT behaviour, and egress identity.
#include <gtest/gtest.h>

#include "dns/client.h"
#include "http/client.h"
#include "vpn/client.h"
#include "vpn/deploy.h"

namespace vpna::vpn {
namespace {

ProviderSpec honest_provider() {
  ProviderSpec spec;
  spec.name = "HonestVPN";
  spec.behavior.has_kill_switch = true;
  spec.behavior.kill_switch_default_on = true;
  spec.behavior.fails_open = false;
  spec.vantage_points = {
      {"no-1", "Oslo", "NO", "Oslo", "gigacloud-osl"},
      {"sg-1", "Singapore", "SG", "Singapore", "leaplayer-sin"},
  };
  return spec;
}

class TunnelFixture : public ::testing::Test {
 protected:
  TunnelFixture() : world_(511), client_host_(world_.spawn_client("Chicago", "vm")) {
    provider_ = deploy_provider(world_, honest_provider());
  }

  netsim::IpAddr vp_addr(std::string_view id) {
    return provider_.vantage_point(id)->addr;
  }

  inet::World world_;
  netsim::Host& client_host_;
  DeployedProvider provider_;
};

TEST_F(TunnelFixture, ConnectAssignsTunnelAddress) {
  VpnClient vc(world_.network(), client_host_, provider_.spec);
  const auto res = vc.connect(vp_addr("no-1"));
  ASSERT_TRUE(res.connected) << res.error_message;
  EXPECT_EQ(vc.state(), ClientState::kConnected);
  EXPECT_TRUE(netsim::Cidr::parse("10.8.0.0/16")->contains(res.assigned_addr));
  ASSERT_NE(client_host_.find_interface("tun0"), nullptr);
}

TEST_F(TunnelFixture, ConnectToDeadServerFails) {
  VpnClient vc(world_.network(), client_host_, provider_.spec);
  const auto res = vc.connect(netsim::IpAddr::v4(203, 0, 113, 99));
  EXPECT_FALSE(res.connected);
  EXPECT_EQ(vc.state(), ClientState::kDisconnected);
  EXPECT_EQ(client_host_.find_interface("tun0"), nullptr);
}

TEST_F(TunnelFixture, DnsResolvesThroughTunnelGateway) {
  VpnClient vc(world_.network(), client_host_, provider_.spec);
  ASSERT_TRUE(vc.connect(vp_addr("no-1")).connected);
  // OS resolver config now points into the tunnel.
  ASSERT_EQ(client_host_.dns_servers().size(), 1u);
  EXPECT_EQ(client_host_.dns_servers()[0], tunnel_gateway_addr());

  const auto res = dns::resolve_system(world_.network(), client_host_,
                                       "daily-courier-news.com", dns::RrType::kA);
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(res.addresses.empty());
}

TEST_F(TunnelFixture, DnsPacketsRideTheTunnelNotEth0) {
  VpnClient vc(world_.network(), client_host_, provider_.spec);
  ASSERT_TRUE(vc.connect(vp_addr("no-1")).connected);
  client_host_.capture().clear();
  (void)dns::resolve_system(world_.network(), client_host_,
                            "daily-courier-news.com", dns::RrType::kA);
  // Plaintext DNS appears on tun0 only; eth0 carries encapsulated frames.
  int dns_on_eth0 = 0, dns_on_tun0 = 0, tunnel_frames_on_eth0 = 0;
  const auto& capture = client_host_.capture();
  for (const auto& rec : capture.records()) {
    const bool is_dns = rec.packet.dst_port == netsim::kPortDns ||
                        rec.packet.src_port == netsim::kPortDns;
    const auto& name = capture.interface_name(rec.interface_id);
    if (name == "eth0" && is_dns) ++dns_on_eth0;
    if (name == "tun0" && is_dns) ++dns_on_tun0;
    if (name == "eth0" && rec.encapsulated) ++tunnel_frames_on_eth0;
  }
  EXPECT_EQ(dns_on_eth0, 0);
  EXPECT_GT(dns_on_tun0, 0);
  EXPECT_GT(tunnel_frames_on_eth0, 0);
}

TEST_F(TunnelFixture, HttpThroughTunnelSeesEgressIdentity) {
  // Server-side capture is off by default for infrastructure hosts;
  // this test wants the vantage point's own view, so turn it on.
  provider_.vantage_point("no-1")->host->capture().set_enabled(true);
  VpnClient vc(world_.network(), client_host_, provider_.spec);
  ASSERT_TRUE(vc.connect(vp_addr("no-1")).connected);
  http::HttpClient c(world_.network(), client_host_);
  const auto res =
      c.fetch("http://" + std::string(inet::header_echo_host()) + "/");
  ASSERT_TRUE(res.ok());
  // The echo body contains the request exactly as the server saw it; the
  // wire source was the vantage point, which we verify via the server-side
  // capture of the vantage-point host.
  const auto& vp_host = *provider_.vantage_point("no-1")->host;
  bool forwarded_from_vp = false;
  for (const auto& rec : vp_host.capture().records()) {
    if (rec.direction == netsim::Direction::kOut &&
        rec.packet.src == vp_addr("no-1") &&
        rec.packet.dst_port == netsim::kPortHttp)
      forwarded_from_vp = true;
  }
  EXPECT_TRUE(forwarded_from_vp);
}

TEST_F(TunnelFixture, GeoApiSeesVantagePointCountry) {
  VpnClient vc(world_.network(), client_host_, provider_.spec);
  ASSERT_TRUE(vc.connect(vp_addr("no-1")).connected);
  http::HttpClient c(world_.network(), client_host_);
  const auto res = c.fetch("http://" + std::string(inet::geo_api_host()) + "/");
  ASSERT_TRUE(res.ok());
  EXPECT_NE(res.body.find("\"country\":\"NO\""), std::string::npos) << res.body;
}

TEST_F(TunnelFixture, PingThroughTunnelAddsBothLegs) {
  VpnClient vc(world_.network(), client_host_, provider_.spec);

  // Anchor near the Oslo vantage point: Stockholm hosts one.
  const inet::Anchor* nordic_anchor = nullptr;
  for (const auto& a : world_.anchors())
    if (a.name == "Stockholm") nordic_anchor = &a;
  ASSERT_NE(nordic_anchor, nullptr);

  const auto direct = world_.network().ping(client_host_, nordic_anchor->addr);
  ASSERT_TRUE(direct.has_value());

  ASSERT_TRUE(vc.connect(vp_addr("no-1")).connected);
  const auto tunneled = world_.network().ping(client_host_, nordic_anchor->addr);
  ASSERT_TRUE(tunneled.has_value());
  // Client->Oslo VP->Stockholm ≈ client->Stockholm direct (short second
  // leg); routing the same ping via Singapore instead detours massively.
  vc.disconnect();

  VpnClient vc2(world_.network(), client_host_, provider_.spec, 2);
  ASSERT_TRUE(vc2.connect(vp_addr("sg-1")).connected);
  const auto detour = world_.network().ping(client_host_, nordic_anchor->addr);
  ASSERT_TRUE(detour.has_value());
  EXPECT_GT(*detour, *tunneled + 50.0);
}

TEST_F(TunnelFixture, RttSeriesFingerprintsVantageLocation) {
  // The Figure 9 mechanism: the *ordering* of anchor RTTs from a vantage
  // point reflects its physical location, not the client's.
  VpnClient vc(world_.network(), client_host_, provider_.spec);
  ASSERT_TRUE(vc.connect(vp_addr("sg-1")).connected);
  const auto sg = geo::city_by_name("Singapore")->location;

  double near_rtt = 0, far_rtt = 0;
  for (const auto& a : world_.anchors()) {
    const auto rtt = world_.network().ping(client_host_, a.addr);
    ASSERT_TRUE(rtt.has_value());
    if (a.name == "Singapore" || a.name == "Bangkok") near_rtt += *rtt;
    if (a.name == "New York" || a.name == "Chicago") far_rtt += *rtt;
  }
  (void)sg;
  // Anchors near Singapore answer faster than anchors near the client,
  // even though the client sits in Chicago.
  EXPECT_LT(near_rtt, far_rtt);
}

TEST_F(TunnelFixture, TracerouteThroughTunnelShowsEgressPath) {
  VpnClient vc(world_.network(), client_host_, provider_.spec);
  ASSERT_TRUE(vc.connect(vp_addr("no-1")).connected);

  const inet::Anchor* anchor = nullptr;
  for (const auto& a : world_.anchors())
    if (a.name == "Stockholm") anchor = &a;
  ASSERT_NE(anchor, nullptr);

  const auto tr = world_.network().traceroute(client_host_, anchor->addr);
  EXPECT_TRUE(tr.reached);
  ASSERT_GE(tr.hops.size(), 2u);
  // The first transit hop lives in the Oslo datacenter's edge, i.e. the
  // backbone address space — not the client's Chicago access network.
  ASSERT_TRUE(tr.hops[0].router.has_value());
  EXPECT_TRUE(netsim::Cidr::parse("198.18.0.0/15")->contains(*tr.hops[0].router));
}

TEST_F(TunnelFixture, DisconnectRestoresState) {
  const auto dns_before = client_host_.dns_servers();
  const auto routes_before = client_host_.routes().routes().size();
  {
    VpnClient vc(world_.network(), client_host_, provider_.spec);
    ASSERT_TRUE(vc.connect(vp_addr("no-1")).connected);
    vc.disconnect();
  }
  EXPECT_EQ(client_host_.dns_servers(), dns_before);
  EXPECT_EQ(client_host_.routes().routes().size(), routes_before);
  EXPECT_EQ(client_host_.find_interface("tun0"), nullptr);
  EXPECT_FALSE(client_host_.has_tunnel_hook());
}

TEST_F(TunnelFixture, DestructorCleansUp) {
  {
    VpnClient vc(world_.network(), client_host_, provider_.spec);
    ASSERT_TRUE(vc.connect(vp_addr("no-1")).connected);
  }
  EXPECT_EQ(client_host_.find_interface("tun0"), nullptr);
}

TEST_F(TunnelFixture, DoubleConnectRejected) {
  VpnClient vc(world_.network(), client_host_, provider_.spec);
  ASSERT_TRUE(vc.connect(vp_addr("no-1")).connected);
  const auto second = vc.connect(vp_addr("sg-1"));
  EXPECT_FALSE(second.connected);
}

TEST_F(TunnelFixture, VpnBlockingSiteRejectsTunnelledClient) {
  // §6.1.2: sites 403 known-VPN ranges. Direct access works; tunnelled
  // access through a blocklisted egress is refused.
  http::HttpClient c(world_.network(), client_host_);
  EXPECT_EQ(c.fetch("http://tls-portal-0.com/").status, 200);

  VpnClient vc(world_.network(), client_host_, provider_.spec);
  ASSERT_TRUE(vc.connect(vp_addr("no-1")).connected);
  EXPECT_EQ(c.fetch("http://tls-portal-0.com/").status, 403);
}

}  // namespace
}  // namespace vpna::vpn
