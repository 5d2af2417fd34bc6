// Leakage-behaviour tests: DNS leaks, IPv6 leaks and tunnel-failure
// handling, exercised exactly the way the paper's §5.3.3 tests observe them
// (captures on the physical interface, firewall-induced failure).
#include <gtest/gtest.h>

#include "dns/client.h"
#include "vpn/client.h"
#include "vpn/deploy.h"

namespace vpna::vpn {
namespace {

ProviderSpec base_spec(std::string name) {
  ProviderSpec spec;
  spec.name = std::move(name);
  spec.vantage_points = {{"de-1", "Frankfurt", "DE", "Frankfurt", "hosteu-fra"}};
  return spec;
}

class LeakFixture : public ::testing::Test {
 protected:
  LeakFixture() : world_(613), client_host_(world_.spawn_client("Chicago", "vm")) {}

  DeployedProvider deploy(const ProviderSpec& spec) {
    return deploy_provider(world_, spec);
  }

  int dns_packets_on_eth0() {
    int n = 0;
    const auto& capture = client_host_.capture();
    for (const auto& rec : capture.records()) {
      if (capture.interface_name(rec.interface_id) == "eth0" &&
          rec.direction == netsim::Direction::kOut &&
          rec.packet.proto == netsim::Proto::kUdp &&
          rec.packet.dst_port == netsim::kPortDns &&
          !rec.encapsulated)
        ++n;
    }
    return n;
  }

  int v6_packets_on_eth0() {
    int n = 0;
    const auto& capture = client_host_.capture();
    for (const auto& rec : capture.records()) {
      if (capture.interface_name(rec.interface_id) == "eth0" &&
          rec.direction == netsim::Direction::kOut &&
          rec.packet.dst.is_v6() && !rec.encapsulated)
        ++n;
    }
    return n;
  }

  inet::World world_;
  netsim::Host& client_host_;
};

TEST_F(LeakFixture, WellBehavedClientDoesNotLeakDns) {
  auto spec = base_spec("CleanVPN");
  auto deployed = deploy(spec);
  VpnClient vc(world_.network(), client_host_, spec);
  ASSERT_TRUE(vc.connect(deployed.vantage_points[0].addr).connected);
  client_host_.capture().clear();
  (void)dns::resolve_system(world_.network(), client_host_,
                            "daily-courier-news.com", dns::RrType::kA);
  EXPECT_EQ(dns_packets_on_eth0(), 0);
}

TEST_F(LeakFixture, DnsLeakingClientEmitsPlainDnsOnEth0) {
  auto spec = base_spec("LeakyDnsVPN");
  spec.behavior.redirects_dns = false;
  auto deployed = deploy(spec);
  VpnClient vc(world_.network(), client_host_, spec);
  ASSERT_TRUE(vc.connect(deployed.vantage_points[0].addr).connected);
  client_host_.capture().clear();
  const auto res = dns::resolve_system(world_.network(), client_host_,
                                       "daily-courier-news.com", dns::RrType::kA);
  EXPECT_TRUE(res.ok());  // resolution still works — that's why it's missed
  EXPECT_GT(dns_packets_on_eth0(), 0);
}

TEST_F(LeakFixture, Ipv6BlockingClientStopsV6) {
  auto spec = base_spec("V6BlockVPN");
  spec.behavior.blocks_ipv6 = true;
  auto deployed = deploy(spec);
  VpnClient vc(world_.network(), client_host_, spec);
  ASSERT_TRUE(vc.connect(deployed.vantage_points[0].addr).connected);
  client_host_.capture().clear();

  // Attempt a v6 connection to a dual-stack site's AAAA address.
  const auto aaaa = dns::resolve_system(world_.network(), client_host_,
                                        "daily-courier-news.com",
                                        dns::RrType::kAaaa);
  ASSERT_TRUE(aaaa.ok());
  netsim::Packet p;
  p.dst = aaaa.addresses[0];
  p.proto = netsim::Proto::kTcp;
  p.dst_port = netsim::kPortHttp;
  const auto res = world_.network().transact(client_host_, std::move(p));
  EXPECT_EQ(res.status, netsim::TransactStatus::kBlockedLocal);
  EXPECT_EQ(v6_packets_on_eth0(), 0);
}

TEST_F(LeakFixture, Ipv6LeakingClientSendsV6InClear) {
  auto spec = base_spec("V6LeakVPN");
  spec.behavior.blocks_ipv6 = false;
  spec.behavior.supports_ipv6 = false;
  auto deployed = deploy(spec);
  VpnClient vc(world_.network(), client_host_, spec);
  ASSERT_TRUE(vc.connect(deployed.vantage_points[0].addr).connected);
  client_host_.capture().clear();

  const auto aaaa = dns::resolve_system(world_.network(), client_host_,
                                        "daily-courier-news.com",
                                        dns::RrType::kAaaa);
  ASSERT_TRUE(aaaa.ok());
  netsim::Packet p;
  p.dst = aaaa.addresses[0];
  p.proto = netsim::Proto::kTcp;
  p.dst_port = netsim::kPortHttp;
  const auto res = world_.network().transact(client_host_, std::move(p));
  // The connection *succeeds* — around the tunnel entirely.
  EXPECT_EQ(res.status, netsim::TransactStatus::kOk);
  EXPECT_GT(v6_packets_on_eth0(), 0);
}

TEST_F(LeakFixture, V6SupportingProviderTunnelsV6) {
  auto spec = base_spec("DualStackVPN");
  spec.behavior.supports_ipv6 = true;
  auto deployed = deploy(spec);
  VpnClient vc(world_.network(), client_host_, spec);
  ASSERT_TRUE(vc.connect(deployed.vantage_points[0].addr).connected);
  client_host_.capture().clear();

  const auto aaaa = dns::resolve_system(world_.network(), client_host_,
                                        "daily-courier-news.com",
                                        dns::RrType::kAaaa);
  ASSERT_TRUE(aaaa.ok());
  netsim::Packet p;
  p.dst = aaaa.addresses[0];
  p.proto = netsim::Proto::kTcp;
  p.dst_port = netsim::kPortHttp;
  const auto res = world_.network().transact(client_host_, std::move(p));
  EXPECT_EQ(res.status, netsim::TransactStatus::kOk);
  EXPECT_TRUE(res.via_tunnel);
  EXPECT_EQ(v6_packets_on_eth0(), 0);
}

// --- tunnel failure ---------------------------------------------------------

// Induces failure the way the paper's test does: firewall all outbound
// traffic to the VPN server, then watch whether outside hosts become
// reachable in the clear.
class TunnelFailureFixture : public LeakFixture {
 protected:
  void induce_failure(const netsim::IpAddr& server) {
    netsim::FwRule deny;
    deny.action = netsim::FwAction::kDeny;
    deny.direction = netsim::Direction::kOut;
    deny.remote_addr = server;
    deny.label = "induced-failure";
    client_host_.firewall().add_rule(deny);
  }

  // Repeatedly probes an anchor over a blocking window, ticking the client
  // so it can notice the dead tunnel. Returns true if any probe escaped.
  bool traffic_escaped_during(VpnClient& vc, double window_seconds) {
    const auto anchor = world_.anchors()[0].addr;
    const auto t_end = world_.clock().now() +
                       util::SimTime::from_seconds(window_seconds);
    bool escaped = false;
    while (world_.clock().now() < t_end) {
      vc.tick();
      netsim::Packet p;
      p.dst = anchor;
      p.proto = netsim::Proto::kIcmpEcho;
      const auto res = world_.network().transact(client_host_, std::move(p));
      if (res.ok() && !res.via_tunnel) escaped = true;
      world_.clock().advance_seconds(5);
    }
    return escaped;
  }
};

TEST_F(TunnelFailureFixture, FailOpenClientLeaks) {
  auto spec = base_spec("FailOpenVPN");
  spec.behavior.fails_open = true;
  spec.behavior.failure_detect_seconds = 20;
  auto deployed = deploy(spec);
  VpnClient vc(world_.network(), client_host_, spec);
  ASSERT_TRUE(vc.connect(deployed.vantage_points[0].addr).connected);
  induce_failure(deployed.vantage_points[0].addr);
  EXPECT_TRUE(traffic_escaped_during(vc, 180));
  EXPECT_EQ(vc.state(), ClientState::kTunnelFailedOpen);
}

TEST_F(TunnelFailureFixture, KillSwitchOnHoldsTraffic) {
  auto spec = base_spec("KillSwitchVPN");
  spec.behavior.has_kill_switch = true;
  spec.behavior.kill_switch_default_on = true;
  spec.behavior.fails_open = true;  // would fail open without the switch
  spec.behavior.failure_detect_seconds = 20;
  auto deployed = deploy(spec);
  VpnClient vc(world_.network(), client_host_, spec);
  ASSERT_TRUE(vc.connect(deployed.vantage_points[0].addr).connected);
  induce_failure(deployed.vantage_points[0].addr);
  EXPECT_FALSE(traffic_escaped_during(vc, 180));
  EXPECT_EQ(vc.state(), ClientState::kTunnelFailedClosed);
}

TEST_F(TunnelFailureFixture, KillSwitchShippedOffLeaks) {
  // The market-leader pattern: a kill switch exists but defaults off.
  auto spec = base_spec("BigBrandVPN");
  spec.behavior.has_kill_switch = true;
  spec.behavior.kill_switch_default_on = false;
  spec.behavior.fails_open = true;
  spec.behavior.failure_detect_seconds = 20;
  auto deployed = deploy(spec);
  VpnClient vc(world_.network(), client_host_, spec);
  ASSERT_TRUE(vc.connect(deployed.vantage_points[0].addr).connected);
  induce_failure(deployed.vantage_points[0].addr);
  EXPECT_TRUE(traffic_escaped_during(vc, 180));
}

TEST_F(TunnelFailureFixture, AppScopedKillSwitchStillLeaksSystemTraffic) {
  // The NordVPN macOS design: the kill switch terminates a chosen app on
  // failure instead of blocking system-wide — so even with the switch
  // enabled and armed by default, everything else on the machine leaks.
  auto spec = base_spec("AppScopedVPN");
  spec.behavior.has_kill_switch = true;
  spec.behavior.kill_switch_default_on = true;
  spec.behavior.kill_switch_per_app_only = true;
  spec.behavior.fails_open = true;
  spec.behavior.failure_detect_seconds = 20;
  auto deployed = deploy(spec);
  vpn::VpnClient vc(world_.network(), client_host_, spec);
  ASSERT_TRUE(vc.connect(deployed.vantage_points[0].addr).connected);
  induce_failure(deployed.vantage_points[0].addr);
  EXPECT_TRUE(traffic_escaped_during(vc, 180));
  EXPECT_EQ(vc.state(), ClientState::kTunnelFailedOpen);
}

TEST_F(TunnelFailureFixture, UserEnabledKillSwitchProtects) {
  auto spec = base_spec("BigBrandVPN");
  spec.behavior.has_kill_switch = true;
  spec.behavior.kill_switch_default_on = false;
  spec.behavior.fails_open = true;
  spec.behavior.failure_detect_seconds = 20;
  auto deployed = deploy(spec);
  VpnClient vc(world_.network(), client_host_, spec);
  vc.set_kill_switch(true);  // the diligent user flips the checkbox
  ASSERT_TRUE(vc.connect(deployed.vantage_points[0].addr).connected);
  induce_failure(deployed.vantage_points[0].addr);
  EXPECT_FALSE(traffic_escaped_during(vc, 180));
}

TEST_F(TunnelFailureFixture, SlowDetectorEvadesShortWindow) {
  // §6.5: the test must guess how long to wait; clients slower than the
  // window produce false negatives (hence "conservative estimate").
  auto spec = base_spec("SlowpokeVPN");
  spec.behavior.fails_open = true;
  spec.behavior.failure_detect_seconds = 400;  // slower than the 3-min window
  auto deployed = deploy(spec);
  VpnClient vc(world_.network(), client_host_, spec);
  ASSERT_TRUE(vc.connect(deployed.vantage_points[0].addr).connected);
  induce_failure(deployed.vantage_points[0].addr);
  EXPECT_FALSE(traffic_escaped_during(vc, 180));  // looks safe...
  EXPECT_EQ(vc.state(), ClientState::kConnected);  // ...but hasn't reacted yet
  EXPECT_TRUE(traffic_escaped_during(vc, 400));    // longer window: leaks
}

TEST_F(TunnelFailureFixture, TrafficBlockedWhileTunnelDownBeforeDetection) {
  auto spec = base_spec("FailOpenVPN");
  spec.behavior.fails_open = true;
  spec.behavior.failure_detect_seconds = 1e9;  // never detects
  auto deployed = deploy(spec);
  VpnClient vc(world_.network(), client_host_, spec);
  ASSERT_TRUE(vc.connect(deployed.vantage_points[0].addr).connected);
  induce_failure(deployed.vantage_points[0].addr);
  // With the tunnel routes still up but the server unreachable, traffic
  // just dies — no leak, no connectivity.
  EXPECT_FALSE(traffic_escaped_during(vc, 60));
}

}  // namespace
}  // namespace vpna::vpn
