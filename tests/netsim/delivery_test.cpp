// The transact path's resolved-once state: the reported RTT equals the sim
// time that passed for every status, jitter draws from its own stream, and
// every memo (egress by index, capture ids, the delivery memo and the
// middlebox-free hop walk) follows the changes that invalidate it. Debug
// builds also recompute each memoized answer on use and assert it is equal.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dns/client.h"
#include "dns/message.h"
#include "netsim/network.h"
#include "util/rng.h"

namespace vpna::netsim {
namespace {

// Answers every request with "pong".
class Pong final : public Service {
 public:
  std::optional<std::string> handle(ServiceContext&) override {
    return "pong";
  }
};

// A minimal VPN server: unframes the inner packet, sends it on from its own
// host, and frames the reply back.
class Relay final : public Service {
 public:
  std::optional<std::string> handle(ServiceContext& ctx) override {
    auto inner = decode_inner(std::move(ctx.request.payload));
    if (!inner) return std::nullopt;
    Packet fwd = *inner;
    fwd.src = IpAddr();
    const auto res = ctx.network.transact(ctx.host, std::move(fwd));
    if (!res.ok()) return std::nullopt;
    Packet reply;
    reply.src = res.responder;
    reply.dst = inner->src;
    reply.proto = inner->proto;
    reply.src_port = inner->dst_port;
    reply.dst_port = inner->src_port;
    reply.payload = res.reply;
    return encode_inner(std::move(reply));
  }
};

class Drop final : public Middlebox {
 public:
  Verdict on_transit(Packet&) override { return {Action::kDrop, {}}; }
};

class Respond final : public Middlebox {
 public:
  Verdict on_transit(Packet&) override {
    return {Action::kRespond, "blocked"};
  }
};

constexpr std::uint16_t kRelayPort = 1194;

// client -- r0 --10ms-- r1 -- server, relay; r1 --20ms-- r2 -- far.
// Jitter at the default stddev, so a second, independent draw would show.
class DeliveryFixture : public ::testing::Test {
 protected:
  DeliveryFixture()
      : net_(clock_, util::Rng(3)),
        client_("client"),
        server_("server"),
        relay_("relay"),
        far_("far") {
    r0_ = net_.add_router("r0");
    r1_ = net_.add_router("r1");
    r2_ = net_.add_router("r2");
    net_.add_link(r0_, r1_, 10.0);
    net_.add_link(r1_, r2_, 20.0);
    setup(client_, IpAddr::v4(71, 80, 0, 10), r0_);
    setup(server_, IpAddr::v4(45, 0, 0, 10), r1_);
    setup(relay_, IpAddr::v4(45, 0, 0, 20), r1_);
    setup(far_, IpAddr::v4(45, 0, 0, 30), r2_);
    server_.bind_service(Proto::kUdp, 7, std::make_shared<Pong>());
    far_.bind_service(Proto::kUdp, 7, std::make_shared<Pong>());
    relay_.bind_service(Proto::kUdp, kRelayPort, std::make_shared<Relay>());
  }

  void setup(Host& h, IpAddr addr, RouterId r) {
    h.add_interface("eth0", addr, std::nullopt);
    h.routes().add(Route{*Cidr::parse("0.0.0.0/0"), "eth0", std::nullopt, 0});
    net_.attach_host(h, r, 0.5);
  }

  // Brings up tun0 on the client with a tunnel hook to the relay, and routes
  // `prefix` into it.
  void connect_tunnel(const char* prefix = "0.0.0.0/1") {
    client_.add_interface("tun0", IpAddr::v4(10, 8, 0, 2), std::nullopt);
    client_.routes().add(Route{*Cidr::parse("45.0.0.20/32"), "eth0",
                               std::nullopt, 0});
    client_.routes().add(Route{*Cidr::parse(prefix), "tun0", std::nullopt, 0});
    const IpAddr relay = IpAddr::v4(45, 0, 0, 20);
    client_.set_tunnel_hook("tun0", [relay](Packet&& inner) {
      Packet outer;
      outer.dst = relay;
      outer.proto = Proto::kUdp;
      outer.src_port = 49999;
      outer.dst_port = kRelayPort;
      outer.payload = encode_inner(std::move(inner));
      return std::optional<Packet>(std::move(outer));
    });
    net_.refresh_host(client_);
  }

  static Packet udp(IpAddr dst, std::uint16_t port = 7) {
    Packet p;
    p.dst = dst;
    p.proto = Proto::kUdp;
    p.src_port = 50000;
    p.dst_port = port;
    p.payload = "ping";
    return p;
  }

  // One transact, checked against the clock: the reported RTT is the time
  // that passed, short only of each clock advance's truncation to whole µs
  // (at most two per exchange level; nested levels count inside
  // service_ms, which is read off the clock).
  TransactResult timed(Host& from, Packet p, const TransactOptions& opts = {}) {
    const auto before = clock_.now();
    auto res = net_.transact(from, std::move(p), opts);
    const double elapsed = (clock_.now() - before).millis();
    EXPECT_LE(elapsed, res.rtt_ms + 1e-9) << status_name(res.status);
    EXPECT_LT(res.rtt_ms - elapsed, 2e-3 + 1e-9) << status_name(res.status);
    return res;
  }

  util::SimClock clock_;
  Network net_;
  Host client_, server_, relay_, far_;
  RouterId r0_ = 0, r1_ = 0, r2_ = 0;
};

const IpAddr kServer = IpAddr::v4(45, 0, 0, 10);
const IpAddr kFar = IpAddr::v4(45, 0, 0, 30);

// --- the reported RTT is the time that passed -------------------------------

TEST_F(DeliveryFixture, DeliveredExchangesReportTheElapsedTime) {
  TransactOptions handshake;
  handshake.extra_round_trips = 2;
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(timed(client_, udp(kServer)).ok());
    EXPECT_TRUE(timed(client_, udp(kFar), handshake).ok());
    Packet echo = udp(kServer);
    echo.proto = Proto::kIcmpEcho;
    EXPECT_TRUE(timed(client_, std::move(echo), handshake).ok());
  }
}

TEST_F(DeliveryFixture, TunnelledExchangesReportTheElapsedTime) {
  connect_tunnel();
  TransactOptions handshake;
  handshake.extra_round_trips = 1;
  for (int i = 0; i < 20; ++i) {
    const auto res = timed(client_, udp(kServer));
    EXPECT_TRUE(res.ok());
    EXPECT_TRUE(res.via_tunnel);
    EXPECT_TRUE(timed(client_, udp(kFar), handshake).ok());
  }
}

TEST_F(DeliveryFixture, EveryFailureReportsTheElapsedTime) {
  const auto status = [&](Host& from, Packet p) {
    return timed(from, std::move(p)).status;
  };
  // kNoRoute: no route for the family, an unattached sender, no path.
  EXPECT_EQ(status(client_, udp(*IpAddr::parse("2001:db8::1"))),
            TransactStatus::kNoRoute);
  Host loose("loose");
  loose.add_interface("eth0", IpAddr::v4(1, 2, 3, 4), std::nullopt);
  loose.routes().add(Route{*Cidr::parse("0.0.0.0/0"), "eth0", std::nullopt, 0});
  EXPECT_EQ(status(loose, udp(kServer)), TransactStatus::kNoRoute);
  Host island("island");
  island.add_interface("eth0", IpAddr::v4(45, 9, 9, 9), std::nullopt);
  net_.attach_host(island, net_.add_router("island"), 0.5);
  EXPECT_EQ(status(client_, udp(IpAddr::v4(45, 9, 9, 9))),
            TransactStatus::kNoRoute);
  // kNoSuchHost, kNoService, kTtlExpired.
  EXPECT_EQ(status(client_, udp(IpAddr::v4(203, 0, 113, 1))),
            TransactStatus::kNoSuchHost);
  EXPECT_EQ(status(client_, udp(kServer, 99)), TransactStatus::kNoService);
  Packet probe = udp(kFar);
  probe.ttl = 2;
  EXPECT_EQ(status(client_, std::move(probe)), TransactStatus::kTtlExpired);
  // kNoReply: the service spends sim time, then stays silent.
  server_.bind_service(
      Proto::kUdp, 8,
      std::make_shared<LambdaService>(
          [](ServiceContext& ctx) -> std::optional<std::string> {
            (void)ctx.network.transact(ctx.host, udp(kFar));
            return std::nullopt;
          }));
  EXPECT_EQ(status(client_, udp(kServer, 8)), TransactStatus::kNoReply);
  // kBlockedRemote, then kBlockedLocal.
  FwRule deny;
  deny.action = FwAction::kDeny;
  deny.direction = Direction::kIn;
  server_.firewall().add_rule(deny);
  EXPECT_EQ(status(client_, udp(kServer)), TransactStatus::kBlockedRemote);
  deny.direction = Direction::kOut;
  client_.firewall().add_rule(deny);
  EXPECT_EQ(status(client_, udp(kServer)), TransactStatus::kBlockedLocal);
}

TEST_F(DeliveryFixture, MiddleboxAndTunnelOutcomesReportTheElapsedTime) {
  net_.set_middlebox(r2_, std::make_shared<Respond>());
  EXPECT_EQ(timed(client_, udp(kFar)).reply, "blocked");
  net_.set_middlebox(r2_, std::make_shared<Drop>());
  EXPECT_EQ(timed(client_, udp(kFar)).status, TransactStatus::kDropped);
  net_.set_middlebox(r2_, nullptr);

  connect_tunnel();
  // A tunnelled exchange whose far side fails: the relay answers nothing.
  EXPECT_EQ(timed(client_, udp(kServer, 99)).status, TransactStatus::kNoReply);
  // kInterfaceDown, then a hook that drops, then a forwarding loop.
  client_.find_interface("tun0")->up = false;
  EXPECT_EQ(timed(client_, udp(kServer)).status,
            TransactStatus::kInterfaceDown);
  client_.find_interface("tun0")->up = true;
  client_.set_tunnel_hook("tun0", [](Packet&&) -> std::optional<Packet> {
    return std::nullopt;
  });
  EXPECT_EQ(timed(client_, udp(kServer)).status, TransactStatus::kDropped);
  client_.set_tunnel_hook("tun0", [](Packet&& inner) {
    Packet outer;
    outer.dst = IpAddr::v4(45, 0, 0, 10);  // routed into tun0 again
    outer.proto = Proto::kUdp;
    outer.payload = encode_inner(std::move(inner));
    return std::optional<Packet>(std::move(outer));
  });
  EXPECT_EQ(timed(client_, udp(kServer)).status, TransactStatus::kDropped);
}

// --- jitter has its own stream ----------------------------------------------

// Logs every query id it answers and answers with one A record.
class IdLoggingDns final : public Service {
 public:
  explicit IdLoggingDns(std::vector<std::uint16_t>& ids) : ids_(ids) {}
  std::optional<std::string> handle(ServiceContext& ctx) override {
    const auto q = dns::DnsQueryView::parse(ctx.request.payload);
    if (!q) return std::nullopt;
    ids_.push_back(q->id);
    return dns::encode_response(q->id, q->type, q->name, dns::Rcode::kNoError,
                                {IpAddr::v4(93, 184, 216, 34)}, {});
  }

 private:
  std::vector<std::uint16_t>& ids_;
};

// The same exchanges on a network with and without jitter: DNS query ids
// come from the network rng, jitter from its own stream, so how many
// exchanges draw jitter never moves an id.
struct DnsRun {
  std::vector<std::uint16_t> ids;
  std::vector<std::string> replies;
};

DnsRun run_dns_exchanges(double jitter_stddev_ms) {
  util::SimClock clock;
  Network net(clock, util::Rng(20181031), jitter_stddev_ms);
  const auto r0 = net.add_router("r0");
  const auto r1 = net.add_router("r1");
  net.add_link(r0, r1, 10.0);
  Host client("client"), resolver("resolver");
  client.add_interface("eth0", IpAddr::v4(71, 80, 0, 10), std::nullopt);
  client.routes().add(Route{*Cidr::parse("0.0.0.0/0"), "eth0", std::nullopt, 0});
  resolver.add_interface("eth0", IpAddr::v4(8, 8, 8, 8), std::nullopt);
  net.attach_host(client, r0, 0.5);
  net.attach_host(resolver, r1, 0.5);
  DnsRun run;
  resolver.bind_service(Proto::kUdp, kPortDns,
                        std::make_shared<IdLoggingDns>(run.ids));
  for (int i = 0; i < 8; ++i) {
    (void)net.ping(client, IpAddr::v4(8, 8, 8, 8));  // draws jitter
    const auto res = dns::query(net, client, IpAddr::v4(8, 8, 8, 8),
                                "example.com", dns::RrType::kA);
    EXPECT_TRUE(res.ok());
    run.replies.push_back(res.addresses.empty() ? std::string()
                                                : res.addresses.front().str());
  }
  return run;
}

TEST(JitterStream, DnsIdsDoNotDependOnJitter) {
  const auto still = run_dns_exchanges(0.0);
  const auto jittery = run_dns_exchanges(0.15);
  ASSERT_EQ(still.ids.size(), 8u);
  EXPECT_EQ(still.ids, jittery.ids);
  EXPECT_EQ(still.replies, jittery.replies);
}

// --- every memo follows what invalidates it ---------------------------------

TEST_F(DeliveryFixture, MiddleboxSetAfterAPathIsCachedStillInspects) {
  ASSERT_TRUE(net_.transact(client_, udp(kFar)).ok());  // memoized, clean
  net_.set_middlebox(r1_, std::make_shared<Drop>());
  EXPECT_EQ(net_.transact(client_, udp(kFar)).status, TransactStatus::kDropped);
  net_.set_middlebox(r1_, nullptr);
  EXPECT_TRUE(net_.transact(client_, udp(kFar)).ok());
}

TEST_F(DeliveryFixture, TunnelAndRouteChangesReResolveEgress) {
  EXPECT_FALSE(net_.transact(client_, udp(kServer)).via_tunnel);
  connect_tunnel("45.0.0.10/32");
  EXPECT_TRUE(net_.transact(client_, udp(kServer)).via_tunnel);
  EXPECT_FALSE(net_.transact(client_, udp(kFar)).via_tunnel);
  // Down and up again: the flag is read per packet.
  client_.find_interface("tun0")->up = false;
  EXPECT_EQ(net_.transact(client_, udp(kServer)).status,
            TransactStatus::kInterfaceDown);
  client_.find_interface("tun0")->up = true;
  EXPECT_TRUE(net_.transact(client_, udp(kServer)).via_tunnel);
  // The hook goes, the route stays: tun0 is a plain interface again.
  client_.clear_tunnel_hook();
  const auto plain = net_.transact(client_, udp(kServer));
  EXPECT_TRUE(plain.ok());
  EXPECT_FALSE(plain.via_tunnel);
  // The route goes: back to eth0.
  client_.routes().remove(*Cidr::parse("45.0.0.10/32"), "tun0");
  EXPECT_TRUE(net_.transact(client_, udp(kServer)).ok());
  // A route to an interface that is gone.
  client_.routes().add(
      Route{*Cidr::parse("45.0.0.10/32"), "tun0", std::nullopt, 0});
  client_.remove_interface("tun0");
  EXPECT_EQ(net_.transact(client_, udp(kServer)).status,
            TransactStatus::kInterfaceDown);
}

// An anycast replica at `router` that answers with its own name.
void attach_replica(Network& net, Host& replica, RouterId router) {
  replica.add_interface("eth0", IpAddr::v4(8, 8, 8, 8), std::nullopt);
  replica.bind_service(
      Proto::kUdp, 7,
      std::make_shared<LambdaService>(
          [&replica](ServiceContext&) -> std::optional<std::string> {
            return replica.name();
          }));
  net.attach_host(replica, router, 0.5);
}

TEST_F(DeliveryFixture, ReplicaAttachedAfterADeliveryWinsTheNext) {
  const IpAddr anycast = IpAddr::v4(8, 8, 8, 8);
  Host far_replica("far-replica"), near_replica("near-replica");
  attach_replica(net_, far_replica, r2_);
  EXPECT_EQ(net_.transact(client_, udp(anycast)).reply, "far-replica");
  attach_replica(net_, near_replica, r1_);
  EXPECT_EQ(net_.transact(client_, udp(anycast)).reply, "near-replica");
}

TEST_F(DeliveryFixture, RefreshThatMovesAnAnycastAddressReRoutes) {
  const IpAddr anycast = IpAddr::v4(8, 8, 8, 8);
  Host far_replica("far-replica");
  attach_replica(net_, far_replica, r2_);
  EXPECT_EQ(net_.transact(client_, udp(anycast)).reply, "far-replica");
  EXPECT_EQ(net_.transact(client_, udp(kServer)).reply, "pong");
  // The server gains the anycast address: it is nearer, so it answers.
  server_.add_interface("eth1", anycast, std::nullopt);
  server_.bind_service(Proto::kUdp, 9, std::make_shared<Pong>());
  net_.refresh_host(server_);
  Packet probe = udp(anycast, 9);
  EXPECT_EQ(net_.transact(client_, probe).reply, "pong");
  // Refreshing the sender leaves both destinations where they were.
  connect_tunnel("45.0.0.10/32");
  EXPECT_EQ(net_.transact(client_, udp(kFar)).reply, "pong");
  EXPECT_TRUE(net_.transact(client_, udp(kServer)).via_tunnel);
  // The server loses it again: the far replica answers once more.
  server_.remove_interface("eth1");
  net_.refresh_host(server_);
  EXPECT_EQ(net_.transact(client_, udp(anycast)).reply, "far-replica");
}

TEST_F(DeliveryFixture, LinksThatChangePathsDropTheMemo) {
  // A leaf's first link extends the plane and keeps the path cache, yet a
  // replica behind it may now win: the memo goes anyway.
  const IpAddr anycast = IpAddr::v4(8, 8, 8, 8);
  Host far_replica("far-replica"), leaf_replica("leaf-replica");
  attach_replica(net_, far_replica, r2_);
  ASSERT_TRUE(net_.transact(client_, udp(kServer)).ok());  // plane built
  const auto leaf = net_.add_router("leaf");
  attach_replica(net_, leaf_replica, leaf);
  EXPECT_EQ(net_.transact(client_, udp(anycast)).reply, "far-replica");
  net_.add_link(leaf, r0_, 1.0);
  EXPECT_EQ(net_.transact(client_, udp(anycast)).reply, "leaf-replica");

  // A link between covered routers drops the plane: r0 -- r2 direct.
  const auto before = net_.transact(client_, udp(kFar));
  net_.add_link(r0_, r2_, 1.0);
  const auto after = net_.transact(client_, udp(kFar));
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_LT(after.rtt_ms, before.rtt_ms - 50.0);
}

TEST_F(DeliveryFixture, RefreshAndDetachDropTheMemo) {
  ASSERT_TRUE(net_.transact(client_, udp(kServer)).ok());
  server_.find_interface("eth0")->addr4 = IpAddr::v4(45, 0, 0, 11);
  net_.refresh_host(server_);
  EXPECT_EQ(net_.transact(client_, udp(kServer)).status,
            TransactStatus::kNoSuchHost);
  EXPECT_TRUE(net_.transact(client_, udp(IpAddr::v4(45, 0, 0, 11))).ok());
  net_.detach_host(server_);
  EXPECT_EQ(net_.transact(client_, udp(IpAddr::v4(45, 0, 0, 11))).status,
            TransactStatus::kNoSuchHost);
}

TEST_F(DeliveryFixture, TtlStillExpiresOnAMiddleboxFreePath) {
  ASSERT_TRUE(net_.transact(client_, udp(kFar)).ok());  // memoized, clean
  // Three routers: ttl 3 expires at the last, ttl 4 reaches the host.
  Packet probe = udp(kFar);
  probe.ttl = 3;
  const auto expired = net_.transact(client_, probe);
  EXPECT_EQ(expired.status, TransactStatus::kTtlExpired);
  EXPECT_EQ(expired.responder, net_.router_addr(r2_));
  probe.ttl = 4;
  EXPECT_TRUE(net_.transact(client_, probe).ok());
  // The destination's capture sees the ttl left after three routers (the
  // last record is its reply).
  const auto& recs = far_.capture().records();
  ASSERT_GE(recs.size(), 2u);
  EXPECT_EQ(recs[recs.size() - 2].direction, Direction::kIn);
  EXPECT_EQ(recs[recs.size() - 2].packet.ttl, 1);
}

TEST_F(DeliveryFixture, TunnelRecordsKeepTheirNameAfterTheInterfaceGoes) {
  connect_tunnel();
  ASSERT_TRUE(net_.transact(client_, udp(kServer)).ok());
  client_.clear_tunnel_hook();
  client_.routes().remove_interface("tun0");
  client_.remove_interface("tun0");
  net_.refresh_host(client_);
  ASSERT_TRUE(net_.transact(client_, udp(kServer)).ok());
  const auto& capture = client_.capture();
  std::vector<std::string> names;
  for (const auto& rec : capture.records())
    names.push_back(capture.interface_name(rec.interface_id));
  // Inner out and in on tun0, the frames on eth0, then the direct exchange.
  EXPECT_EQ(names, (std::vector<std::string>{"tun0", "eth0", "eth0", "tun0",
                                             "eth0", "eth0"}));
  const auto dump = capture.dump();
  EXPECT_NE(dump.find("tun0  OUT"), std::string::npos) << dump;
  EXPECT_NE(dump.find("tun0  IN"), std::string::npos) << dump;
}

}  // namespace
}  // namespace vpna::netsim
