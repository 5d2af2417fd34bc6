#include "netsim/network.h"

#include <gtest/gtest.h>

#include <memory>

namespace vpna::netsim {
namespace {

// A two-router, two-host fixture: client -- r0 ---10ms--- r1 -- server.
class NetworkFixture : public ::testing::Test {
 protected:
  NetworkFixture()
      : net_(clock_, util::Rng(1), /*jitter_stddev_ms=*/0.0),
        client_("client"),
        server_("server") {
    r0_ = net_.add_router("r0");
    r1_ = net_.add_router("r1");
    net_.add_link(r0_, r1_, 10.0);

    client_.add_interface("eth0", IpAddr::v4(71, 80, 0, 10),
                          *IpAddr::parse("2600:8800::10"));
    client_.routes().add(
        Route{*Cidr::parse("0.0.0.0/0"), "eth0", std::nullopt, 0});
    client_.routes().add(Route{Cidr(IpAddr::v6({}), 0), "eth0", std::nullopt, 0});
    net_.attach_host(client_, r0_, 1.0);

    server_.add_interface("eth0", IpAddr::v4(45, 0, 0, 10),
                          *IpAddr::parse("2a0e:100::10"));
    server_.routes().add(
        Route{*Cidr::parse("0.0.0.0/0"), "eth0", std::nullopt, 0});
    server_.routes().add(Route{Cidr(IpAddr::v6({}), 0), "eth0", std::nullopt, 0});
    net_.attach_host(server_, r1_, 1.0);
  }

  Packet udp_to_server(std::string payload = "ping?") {
    Packet p;
    p.dst = IpAddr::v4(45, 0, 0, 10);
    p.proto = Proto::kUdp;
    p.src_port = 50000;
    p.dst_port = 7777;
    p.payload = std::move(payload);
    return p;
  }

  util::SimClock clock_;
  Network net_;
  Host client_;
  Host server_;
  RouterId r0_ = 0, r1_ = 0;
};

TEST_F(NetworkFixture, PingComputesPhysicalRtt) {
  const auto rtt = net_.ping(client_, IpAddr::v4(45, 0, 0, 10));
  ASSERT_TRUE(rtt.has_value());
  // One way: 1 (access) + 10 (link) + 1 (access) = 12ms; RTT = 24ms.
  EXPECT_NEAR(*rtt, 24.0, 1e-9);
}

TEST_F(NetworkFixture, PingUnknownHostFails) {
  EXPECT_FALSE(net_.ping(client_, IpAddr::v4(9, 9, 9, 9)).has_value());
}

TEST_F(NetworkFixture, ClockAdvancesWithTraffic) {
  const auto before = clock_.now();
  (void)net_.ping(client_, IpAddr::v4(45, 0, 0, 10));
  EXPECT_GT(clock_.now(), before);
}

TEST_F(NetworkFixture, ServiceRequestResponse) {
  server_.bind_service(Proto::kUdp, 7777,
                       std::make_shared<LambdaService>(
                           [](ServiceContext& ctx) -> std::optional<std::string> {
                             return "echo:" + ctx.request.payload;
                           }));
  const auto res = net_.transact(client_, udp_to_server("hello"));
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.reply, "echo:hello");
  EXPECT_EQ(res.responder, IpAddr::v4(45, 0, 0, 10));
}

TEST_F(NetworkFixture, NoServiceStatus) {
  const auto res = net_.transact(client_, udp_to_server());
  EXPECT_EQ(res.status, TransactStatus::kNoService);
}

TEST_F(NetworkFixture, NoReplyService) {
  server_.bind_service(
      Proto::kUdp, 7777,
      std::make_shared<LambdaService>(
          [](ServiceContext&) -> std::optional<std::string> {
            return std::nullopt;
          }));
  const auto res = net_.transact(client_, udp_to_server());
  EXPECT_EQ(res.status, TransactStatus::kNoReply);
}

TEST_F(NetworkFixture, NoRouteWhenTableEmptyForFamily) {
  Packet p;
  p.dst = *IpAddr::parse("2a0e:100::10");
  p.proto = Proto::kUdp;
  p.dst_port = 7777;
  client_.routes().remove_interface("eth0");
  const auto res = net_.transact(client_, std::move(p));
  EXPECT_EQ(res.status, TransactStatus::kNoRoute);
}

TEST_F(NetworkFixture, LocalFirewallBlocksAndChargesTimeout) {
  FwRule deny;
  deny.action = FwAction::kDeny;
  client_.firewall().add_rule(deny);
  const auto t0 = clock_.now();
  const auto res = net_.transact(client_, udp_to_server());
  EXPECT_EQ(res.status, TransactStatus::kBlockedLocal);
  EXPECT_NEAR((clock_.now() - t0).millis(), 1000.0, 1e-9);
}

TEST_F(NetworkFixture, RemoteFirewallBlocks) {
  FwRule deny;
  deny.action = FwAction::kDeny;
  deny.direction = Direction::kIn;
  server_.firewall().add_rule(deny);
  const auto res = net_.transact(client_, udp_to_server());
  EXPECT_EQ(res.status, TransactStatus::kBlockedRemote);
}

TEST_F(NetworkFixture, CapturesRecordedOnBothEnds) {
  server_.bind_service(Proto::kUdp, 7777,
                       std::make_shared<LambdaService>(
                           [](ServiceContext&) -> std::optional<std::string> {
                             return "ok";
                           }));
  (void)net_.transact(client_, udp_to_server());
  // Client: out + in. Server: in + out.
  EXPECT_EQ(client_.capture().size(), 2u);
  EXPECT_EQ(server_.capture().size(), 2u);
  EXPECT_EQ(client_.capture().records()[0].direction, Direction::kOut);
  EXPECT_EQ(client_.capture().records()[1].direction, Direction::kIn);
  EXPECT_EQ(client_.capture().interface_name(
                client_.capture().records()[0].interface_id),
            "eth0");
}

TEST_F(NetworkFixture, TracerouteDiscoversPath) {
  const auto tr = net_.traceroute(client_, IpAddr::v4(45, 0, 0, 10));
  EXPECT_TRUE(tr.reached);
  // Two routers on the path, then delivery.
  ASSERT_EQ(tr.hops.size(), 3u);
  EXPECT_EQ(*tr.hops[0].router, net_.router_addr(r0_));
  EXPECT_EQ(*tr.hops[1].router, net_.router_addr(r1_));
  EXPECT_EQ(*tr.hops[2].router, IpAddr::v4(45, 0, 0, 10));
  EXPECT_LT(tr.hops[0].rtt_ms, tr.hops[1].rtt_ms);
}

TEST_F(NetworkFixture, TtlExpiryReturnsRouterAddr) {
  Packet p;
  p.dst = IpAddr::v4(45, 0, 0, 10);
  p.proto = Proto::kIcmpEcho;
  p.ttl = 1;
  const auto res = net_.transact(client_, std::move(p));
  EXPECT_EQ(res.status, TransactStatus::kTtlExpired);
  EXPECT_EQ(res.responder, net_.router_addr(r0_));
}

TEST_F(NetworkFixture, InterfaceDownStopsTraffic) {
  client_.find_interface("eth0")->up = false;
  const auto res = net_.transact(client_, udp_to_server());
  EXPECT_EQ(res.status, TransactStatus::kInterfaceDown);
}

TEST_F(NetworkFixture, ExtraRoundTripsScaleRtt) {
  server_.bind_service(Proto::kUdp, 7777,
                       std::make_shared<LambdaService>(
                           [](ServiceContext&) -> std::optional<std::string> {
                             return "ok";
                           }));
  TransactOptions plain;
  const auto r1 = net_.transact(client_, udp_to_server(), plain);
  TransactOptions https;
  https.extra_round_trips = 3;
  const auto r2 = net_.transact(client_, udp_to_server(), https);
  EXPECT_NEAR(r2.rtt_ms, 4 * r1.rtt_ms, 1e-6);
}

TEST_F(NetworkFixture, BaseLatencyMatchesTopology) {
  const auto lat = net_.base_latency_ms(client_, server_);
  ASSERT_TRUE(lat.has_value());
  EXPECT_NEAR(*lat, 12.0, 1e-9);
}

TEST_F(NetworkFixture, MiddleboxRespondImpersonatesDestination) {
  class Impersonator final : public Middlebox {
   public:
    Verdict on_transit(Packet&) override {
      Verdict v;
      v.action = Action::kRespond;
      v.response_payload = "blocked!";
      return v;
    }
  };
  net_.set_middlebox(r0_, std::make_shared<Impersonator>());
  const auto res = net_.transact(client_, udp_to_server());
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.reply, "blocked!");
  // The reply appears to come from the destination.
  EXPECT_EQ(res.responder, IpAddr::v4(45, 0, 0, 10));
}

TEST_F(NetworkFixture, MiddleboxDrop) {
  class Dropper final : public Middlebox {
   public:
    Verdict on_transit(Packet&) override {
      Verdict v;
      v.action = Action::kDrop;
      return v;
    }
  };
  net_.set_middlebox(r1_, std::make_shared<Dropper>());
  const auto res = net_.transact(client_, udp_to_server());
  EXPECT_EQ(res.status, TransactStatus::kDropped);
  net_.set_middlebox(r1_, nullptr);
  EXPECT_EQ(net_.transact(client_, udp_to_server()).status,
            TransactStatus::kNoService);
}

TEST_F(NetworkFixture, AnycastPicksNearestReplica) {
  // Two replicas of 9.9.9.9: one adjacent to the client, one far away.
  const auto r2 = net_.add_router("far");
  net_.add_link(r1_, r2, 100.0);

  Host near_replica("quad9-near");
  near_replica.add_interface("eth0", IpAddr::v4(9, 9, 9, 9), std::nullopt);
  net_.attach_host(near_replica, r0_, 0.5);

  Host far_replica("quad9-far");
  far_replica.add_interface("eth0", IpAddr::v4(9, 9, 9, 9), std::nullopt);
  net_.attach_host(far_replica, r2, 0.5);

  const auto rtt = net_.ping(client_, IpAddr::v4(9, 9, 9, 9));
  ASSERT_TRUE(rtt.has_value());
  // Near replica: (1 + 0.5) * 2 = 3ms. Far would be > 200ms.
  EXPECT_LT(*rtt, 10.0);
}

TEST_F(NetworkFixture, JitterPerturbssRtt) {
  util::SimClock clock2;
  Network jittery(clock2, util::Rng(7), /*jitter_stddev_ms=*/1.0);
  const auto a = jittery.add_router("a");
  const auto b = jittery.add_router("b");
  jittery.add_link(a, b, 10.0);
  Host h1("h1"), h2("h2");
  h1.add_interface("eth0", IpAddr::v4(1, 0, 0, 1), std::nullopt);
  h1.routes().add(Route{*Cidr::parse("0.0.0.0/0"), "eth0", std::nullopt, 0});
  h2.add_interface("eth0", IpAddr::v4(1, 0, 0, 2), std::nullopt);
  jittery.attach_host(h1, a, 1.0);
  jittery.attach_host(h2, b, 1.0);
  std::set<double> rtts;
  for (int i = 0; i < 5; ++i) rtts.insert(*jittery.ping(h1, IpAddr::v4(1, 0, 0, 2)));
  EXPECT_GT(rtts.size(), 1u);           // jitter varies samples
  for (double r : rtts) EXPECT_GE(r, 24.0);  // but never below physics
}

TEST_F(NetworkFixture, DetachHostMakesItUnreachable) {
  net_.detach_host(server_);
  EXPECT_FALSE(net_.ping(client_, IpAddr::v4(45, 0, 0, 10)).has_value());
}

TEST_F(NetworkFixture, AttachingTwiceThrows) {
  EXPECT_THROW(net_.attach_host(client_, r1_, 1.0), std::logic_error);
}

}  // namespace
}  // namespace vpna::netsim
