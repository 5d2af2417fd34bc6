// Edge-case tests for the network fabric: forwarding loops, middlebox
// in-place modification, nested transactions, ephemeral ports, traceroute
// boundary behaviour, status naming, and the incremental address index
// checked against a naive scan under seeded attach/detach/refresh churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "netsim/network.h"
#include "util/rng.h"

namespace vpna::netsim {
namespace {

class EdgeFixture : public ::testing::Test {
 protected:
  EdgeFixture() : net_(clock_, util::Rng(9), 0.0), a_("a"), b_("b") {
    r0_ = net_.add_router("r0");
    r1_ = net_.add_router("r1");
    net_.add_link(r0_, r1_, 5.0);
    setup(a_, IpAddr::v4(10, 0, 0, 1), r0_);
    setup(b_, IpAddr::v4(10, 0, 0, 2), r1_);
  }

  void setup(Host& h, IpAddr addr, RouterId r) {
    h.add_interface("eth0", addr, std::nullopt);
    h.routes().add(Route{*Cidr::parse("0.0.0.0/0"), "eth0", std::nullopt, 0});
    net_.attach_host(h, r, 0.5);
  }

  Packet to_b(Proto proto = Proto::kUdp, std::uint16_t port = 9) {
    Packet p;
    p.dst = IpAddr::v4(10, 0, 0, 2);
    p.proto = proto;
    p.dst_port = port;
    p.payload = "x";
    return p;
  }

  util::SimClock clock_;
  Network net_;
  Host a_;
  Host b_;
  RouterId r0_ = 0, r1_ = 0;
};

TEST_F(EdgeFixture, TunnelRoutedThroughItselfIsDroppedNotInfinite) {
  // A tunnel whose outer destination is routed back into the tunnel: the
  // recursion guard must drop it instead of recursing forever.
  a_.add_interface("tun0", IpAddr::v4(10, 8, 0, 2), std::nullopt);
  a_.routes().remove_interface("eth0");
  a_.routes().add(Route{*Cidr::parse("0.0.0.0/0"), "tun0", std::nullopt, 0});
  a_.set_tunnel_hook("tun0", [](const Packet& inner) -> std::optional<Packet> {
    Packet outer;
    outer.dst = IpAddr::v4(10, 0, 0, 2);  // routed via tun0 again
    outer.proto = Proto::kUdp;
    outer.dst_port = 1194;
    outer.payload = encode_inner(inner);
    return outer;
  });
  net_.refresh_host(a_);
  // Like every other drop, the loop drop charges the timeout, once.
  TransactOptions opts;
  opts.timeout_ms = 750.0;
  const auto before = clock_.now();
  const auto res = net_.transact(a_, to_b(), opts);
  EXPECT_EQ(res.status, TransactStatus::kDropped);
  EXPECT_DOUBLE_EQ(res.rtt_ms, opts.timeout_ms);
  EXPECT_DOUBLE_EQ((clock_.now() - before).millis(), opts.timeout_ms);
}

TEST_F(EdgeFixture, TunnelHookReturningNulloptDrops) {
  a_.add_interface("tun0", IpAddr::v4(10, 8, 0, 2), std::nullopt);
  a_.routes().add(Route{*Cidr::parse("10.0.0.2/32"), "tun0", std::nullopt, 0});
  a_.set_tunnel_hook("tun0",
                     [](const Packet&) -> std::optional<Packet> {
                       return std::nullopt;  // tunnel down, failing closed
                     });
  net_.refresh_host(a_);
  const auto res = net_.transact(a_, to_b());
  EXPECT_EQ(res.status, TransactStatus::kDropped);
  EXPECT_TRUE(res.via_tunnel);
}

TEST_F(EdgeFixture, MiddleboxMayModifyInFlight) {
  class Rewriter final : public Middlebox {
   public:
    Verdict on_transit(Packet& p) override {
      p.payload = "rewritten";
      return {};  // pass, modified
    }
  };
  net_.set_middlebox(r1_, std::make_shared<Rewriter>());
  b_.bind_service(Proto::kUdp, 9,
                  std::make_shared<LambdaService>(
                      [](ServiceContext& ctx) -> std::optional<std::string> {
                        return "got:" + ctx.request.payload;
                      }));
  const auto res = net_.transact(a_, to_b());
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.reply, "got:rewritten");
}

TEST_F(EdgeFixture, NestedServiceTransactionsCompose) {
  // b's service calls through to a second host (proxy pattern); latencies
  // accumulate across the nesting.
  Host c("c");
  setup(c, IpAddr::v4(10, 0, 0, 3), r1_);
  c.bind_service(Proto::kUdp, 9,
                 std::make_shared<LambdaService>(
                     [](ServiceContext&) -> std::optional<std::string> {
                       return "from-c";
                     }));
  b_.bind_service(
      Proto::kUdp, 9,
      std::make_shared<LambdaService>(
          [](ServiceContext& ctx) -> std::optional<std::string> {
            Packet fwd;
            fwd.dst = IpAddr::v4(10, 0, 0, 3);
            fwd.proto = Proto::kUdp;
            fwd.src_port = ctx.host.next_ephemeral_port();
            fwd.dst_port = 9;
            const auto res = ctx.network.transact(ctx.host, std::move(fwd));
            if (!res.ok()) return std::nullopt;
            return "via-b:" + res.reply;
          }));
  const auto direct = net_.transact(a_, to_b());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct.reply, "via-b:from-c");
  // The nested hop's time is part of the measured RTT.
  EXPECT_GT(direct.rtt_ms, 11.0);
}

TEST_F(EdgeFixture, EphemeralPortsAdvanceAndWrap) {
  Host h("ports");
  const auto first = h.next_ephemeral_port();
  EXPECT_GE(first, 49152);
  std::uint16_t prev = first;
  bool wrapped = false;
  for (int i = 0; i < 70000; ++i) {
    const auto p = h.next_ephemeral_port();
    if (p < prev) wrapped = true;
    EXPECT_GE(p, 49152);
    prev = p;
  }
  EXPECT_TRUE(wrapped);
}

TEST_F(EdgeFixture, TracerouteToUnreachableStopsEarly) {
  const auto tr = net_.traceroute(a_, IpAddr::v4(203, 0, 113, 1), 30);
  EXPECT_FALSE(tr.reached);
  EXPECT_LE(tr.hops.size(), 1u);
}

TEST_F(EdgeFixture, TracerouteMaxTtlCapsProbes) {
  const auto tr = net_.traceroute(a_, IpAddr::v4(10, 0, 0, 2), 1);
  EXPECT_FALSE(tr.reached);
  ASSERT_EQ(tr.hops.size(), 1u);
  EXPECT_EQ(*tr.hops[0].router, net_.router_addr(r0_));
}

TEST_F(EdgeFixture, StatusNamesCoverAllValues) {
  for (const auto status :
       {TransactStatus::kOk, TransactStatus::kNoRoute,
        TransactStatus::kInterfaceDown, TransactStatus::kBlockedLocal,
        TransactStatus::kBlockedRemote, TransactStatus::kNoSuchHost,
        TransactStatus::kNoService, TransactStatus::kNoReply,
        TransactStatus::kDropped, TransactStatus::kTtlExpired}) {
    EXPECT_NE(status_name(status), "unknown");
    EXPECT_FALSE(status_name(status).empty());
  }
}

TEST_F(EdgeFixture, UnspecifiedSourceGetsFilledFromEgressInterface) {
  b_.bind_service(Proto::kUdp, 9,
                  std::make_shared<LambdaService>(
                      [](ServiceContext& ctx) -> std::optional<std::string> {
                        return ctx.request.src.str();
                      }));
  Packet p = to_b();
  p.src = IpAddr();  // unspecified
  const auto res = net_.transact(a_, std::move(p));
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.reply, "10.0.0.1");
}

TEST_F(EdgeFixture, DisconnectedRouterPairHasNoPath) {
  const auto island = net_.add_router("island");
  Host h("islander");
  h.add_interface("eth0", IpAddr::v4(10, 0, 0, 9), std::nullopt);
  h.routes().add(Route{*Cidr::parse("0.0.0.0/0"), "eth0", std::nullopt, 0});
  net_.attach_host(h, island, 0.5);
  const auto res = net_.transact(a_, [&] {
    Packet p;
    p.dst = IpAddr::v4(10, 0, 0, 9);
    p.proto = Proto::kUdp;
    p.dst_port = 9;
    return p;
  }());
  EXPECT_EQ(res.status, TransactStatus::kNoRoute);
  EXPECT_FALSE(net_.base_latency_ms(a_, h).has_value());
}

TEST_F(EdgeFixture, SendingFromUnattachedHostFails) {
  Host lonely("lonely");
  lonely.add_interface("eth0", IpAddr::v4(172, 16, 0, 1), std::nullopt);
  lonely.routes().add(
      Route{*Cidr::parse("0.0.0.0/0"), "eth0", std::nullopt, 0});
  const auto res = net_.transact(lonely, to_b());
  EXPECT_EQ(res.status, TransactStatus::kNoRoute);
}

// --- incremental address index (attach/detach/refresh) ---------------------

TEST_F(EdgeFixture, DetachRemovesAddressesAndReattachRestoresThem) {
  ASSERT_TRUE(net_.ping(a_, IpAddr::v4(10, 0, 0, 2)).has_value());
  net_.detach_host(b_);
  EXPECT_EQ(net_.host_by_addr(IpAddr::v4(10, 0, 0, 2)), nullptr);
  const auto res = net_.transact(a_, to_b(Proto::kIcmpEcho));
  EXPECT_EQ(res.status, TransactStatus::kNoSuchHost);
  net_.attach_host(b_, r1_, 0.5);
  EXPECT_EQ(net_.host_by_addr(IpAddr::v4(10, 0, 0, 2)), &b_);
  EXPECT_TRUE(net_.ping(a_, IpAddr::v4(10, 0, 0, 2)).has_value());
}

TEST_F(EdgeFixture, DetachingUnattachedHostIsANoop) {
  Host lonely("lonely");
  net_.detach_host(lonely);
  EXPECT_TRUE(net_.ping(a_, IpAddr::v4(10, 0, 0, 2)).has_value());
}

TEST_F(EdgeFixture, RefreshTracksInterfaceChanges) {
  b_.add_interface("eth1", IpAddr::v4(10, 0, 0, 20), std::nullopt);
  // Not visible until refreshed.
  EXPECT_EQ(net_.host_by_addr(IpAddr::v4(10, 0, 0, 20)), nullptr);
  net_.refresh_host(b_);
  EXPECT_EQ(net_.host_by_addr(IpAddr::v4(10, 0, 0, 20)), &b_);
  b_.remove_interface("eth1");
  net_.refresh_host(b_);
  EXPECT_EQ(net_.host_by_addr(IpAddr::v4(10, 0, 0, 20)), nullptr);
  // The untouched address survives both refreshes.
  EXPECT_EQ(net_.host_by_addr(IpAddr::v4(10, 0, 0, 2)), &b_);
}

TEST_F(EdgeFixture, AnycastPrefersClosestReplicaAcrossChurn) {
  // Two replicas of 8.8.8.8: one at r1 (5ms from a_) and one behind a
  // farther router. Detaching and re-attaching replicas must keep routing
  // to the closest live one.
  const auto r2 = net_.add_router("r2");
  net_.add_link(r1_, r2, 50.0);
  const IpAddr anycast = IpAddr::v4(8, 8, 8, 8);
  Host near("near"), far("far");
  near.add_interface("eth0", anycast, std::nullopt);
  far.add_interface("eth0", anycast, std::nullopt);
  net_.attach_host(near, r1_, 0.5);
  net_.attach_host(far, r2, 0.5);

  // 0.5 + 5 + 0.5 each way = 12ms RTT to the near replica.
  auto rtt = net_.ping(a_, anycast);
  ASSERT_TRUE(rtt.has_value());
  EXPECT_NEAR(*rtt, 12.0, 1e-9);

  net_.detach_host(near);
  rtt = net_.ping(a_, anycast);
  ASSERT_TRUE(rtt.has_value());
  EXPECT_NEAR(*rtt, 112.0, 1e-9);  // 0.5 + 55 + 0.5 each way

  net_.attach_host(near, r1_, 0.5);
  rtt = net_.ping(a_, anycast);
  ASSERT_TRUE(rtt.has_value());
  EXPECT_NEAR(*rtt, 12.0, 1e-9);
}

// --- address-index oracle: seeded churn against a naive scan ---------------

// A star: the sender's router 0 in the middle, five routers around it. Two
// share a latency, and several replicas share a router, so anycast ties
// (broken by attach order) come up often.
constexpr std::array<double, 6> kSpokeMs = {0.0, 3.0, 7.0, 7.0, 12.0, 20.0};

// What the index should hold: every attached host with the addresses it
// had at its last attach or refresh, in attach order.
struct ModelEntry {
  Host* host = nullptr;
  RouterId router = 0;
  std::vector<IpAddr> addrs;
};

std::vector<IpAddr> global_addrs(const Host& h) {
  std::vector<IpAddr> out;
  for (const auto& iface : h.interfaces()) {
    if (iface.name == "lo") continue;
    if (iface.addr4) out.push_back(*iface.addr4);
    if (iface.addr6) out.push_back(*iface.addr6);
  }
  return out;
}

// Answers every UDP probe with the name of the host it reached.
class NameEcho final : public Service {
 public:
  std::optional<std::string> handle(ServiceContext& ctx) override {
    return ctx.host.name();
  }
};

// The index holds an attached host's addresses as of its last attach or
// refresh_host. Editing one host's interfaces and then attaching and
// detaching others before the refresh is legal; lookups keep answering
// from the indexed addresses (in a Debug build the index checks run after
// every step and must agree).
TEST(AddressIndexOracle, OtherHostsChurnBeforeARefresh) {
  util::SimClock clock;
  Network net(clock, util::Rng(1), /*jitter_stddev_ms=*/0.0);
  const auto r0 = net.add_router("r0");
  Host a("a");
  Host b("b");
  a.add_interface("eth0", IpAddr::v4(10, 0, 0, 1), std::nullopt);
  b.add_interface("eth0", IpAddr::v4(10, 0, 0, 2), std::nullopt);
  net.attach_host(a, r0, 0.5);

  a.add_interface("tun0", IpAddr::v4(10, 8, 0, 2), std::nullopt);
  a.remove_interface("eth0");
  net.attach_host(b, r0, 0.5);  // a is stale while b attaches
  EXPECT_EQ(net.host_by_addr(IpAddr::v4(10, 0, 0, 1)), &a);
  EXPECT_EQ(net.host_by_addr(IpAddr::v4(10, 8, 0, 2)), nullptr);
  EXPECT_EQ(net.host_by_addr(IpAddr::v4(10, 0, 0, 2)), &b);
  net.detach_host(b);
  EXPECT_EQ(net.host_by_addr(IpAddr::v4(10, 0, 0, 2)), nullptr);

  net.refresh_host(a);
  EXPECT_EQ(net.host_by_addr(IpAddr::v4(10, 0, 0, 1)), nullptr);
  EXPECT_EQ(net.host_by_addr(IpAddr::v4(10, 8, 0, 2)), &a);
}

TEST(AddressIndexOracle, SeededChurnMatchesNaiveScan) {
  util::SimClock clock;
  Network net(clock, util::Rng(1), /*jitter_stddev_ms=*/0.0);
  std::vector<RouterId> routers;
  for (std::size_t i = 0; i < kSpokeMs.size(); ++i)
    routers.push_back(net.add_router("r" + std::to_string(i)));
  for (std::size_t i = 1; i < kSpokeMs.size(); ++i)
    net.add_link(routers[0], routers[i], kSpokeMs[i]);

  Host sender("sender");
  sender.add_interface("eth0", IpAddr::v4(192, 0, 2, 1),
                       *IpAddr::parse("2001:db8::1"));
  sender.routes().add(
      Route{*Cidr::parse("0.0.0.0/0"), "eth0", std::nullopt, 0});
  sender.routes().add(Route{Cidr(IpAddr::v6({}), 0), "eth0", std::nullopt, 0});
  net.attach_host(sender, routers[0], 0.5);

  // A small shared pool, so most addresses end up with several replicas.
  const std::vector<IpAddr> pool4 = {
      IpAddr::v4(8, 8, 8, 8), IpAddr::v4(9, 9, 9, 9), IpAddr::v4(1, 1, 1, 1),
      IpAddr::v4(45, 0, 0, 1)};
  const std::vector<IpAddr> pool6 = {*IpAddr::parse("2001:4860::8888"),
                                     *IpAddr::parse("2620:fe::fe"),
                                     *IpAddr::parse("2a0e:100::1")};
  util::Rng rng(20181031);
  const auto draw4 = [&] { return pool4[rng.index(pool4.size())]; };
  const auto draw6 = [&]() -> std::optional<IpAddr> {
    if (rng.chance(0.4)) return std::nullopt;
    return pool6[rng.index(pool6.size())];
  };

  constexpr std::size_t kHosts = 10;
  std::vector<std::unique_ptr<Host>> hosts;
  std::vector<int> next_iface(kHosts, 0);
  for (std::size_t i = 0; i < kHosts; ++i) {
    hosts.push_back(std::make_unique<Host>("replica-" + std::to_string(i)));
    hosts.back()->add_interface("eth0", draw4(), draw6());
    hosts.back()->bind_service(Proto::kUdp, 7, std::make_shared<NameEcho>());
  }
  std::vector<ModelEntry> model;
  const auto model_entry = [&](const Host* h) {
    return std::find_if(model.begin(), model.end(),
                        [&](const ModelEntry& e) { return e.host == h; });
  };

  // How often the churn reached the cases the index must get right.
  int shared_addr_checks = 0;  // two or more holders of one address
  int nearest_not_first = 0;   // anycast picked other than attach order
  int rejected_attaches = 0;   // attach of an attached host threw
  const auto check = [&](int step) {
    for (const auto& pool : {pool4, pool6}) {
      for (const IpAddr& addr : pool) {
        // The first holder in attach order, and the holder with the
        // lowest path latency from router 0 (ties: attach order).
        const ModelEntry* first = nullptr;
        const ModelEntry* nearest = nullptr;
        int holders = 0;
        for (const auto& e : model) {
          if (std::find(e.addrs.begin(), e.addrs.end(), addr) == e.addrs.end())
            continue;
          ++holders;
          if (first == nullptr) first = &e;
          if (nearest == nullptr ||
              kSpokeMs[e.router] < kSpokeMs[nearest->router])
            nearest = &e;
        }
        if (holders >= 2) ++shared_addr_checks;
        if (nearest != first) ++nearest_not_first;
        ASSERT_EQ(net.host_by_addr(addr), first ? first->host : nullptr)
            << "step " << step << " addr " << addr.str();
        Packet probe;
        probe.dst = addr;
        probe.proto = Proto::kUdp;
        probe.dst_port = 7;
        const auto res = net.transact(sender, std::move(probe));
        if (nearest == nullptr) {
          ASSERT_EQ(res.status, TransactStatus::kNoSuchHost)
              << "step " << step << " addr " << addr.str();
        } else {
          ASSERT_EQ(res.status, TransactStatus::kOk) << "step " << step;
          ASSERT_EQ(res.reply, nearest->host->name())
              << "step " << step << " addr " << addr.str();
        }
      }
    }
  };

  for (int step = 0; step < 400; ++step) {
    const std::size_t i = rng.index(kHosts);
    Host& h = *hosts[i];
    const auto entry = model_entry(&h);
    const bool attached = entry != model.end();
    const std::size_t op = rng.index(5);
    switch (op) {
      case 0: {  // attach (throws when already attached)
        const RouterId r = routers[rng.index(routers.size())];
        if (attached) {
          EXPECT_THROW(net.attach_host(h, r, 0.5), std::logic_error);
          ++rejected_attaches;
        } else {
          net.attach_host(h, r, 0.5);
          model.push_back(ModelEntry{&h, r, global_addrs(h)});
        }
        break;
      }
      case 1:  // detach (a no-op when detached)
        net.detach_host(h);
        if (attached) model.erase(entry);
        break;
      case 2:  // add an interface
        h.add_interface("if" + std::to_string(++next_iface[i]),
                        rng.chance(0.8) ? std::optional(draw4()) : std::nullopt,
                        draw6());
        break;
      case 3: {  // remove one interface other than lo
        std::vector<std::string> names;
        for (const auto& iface : h.interfaces())
          if (iface.name != "lo") names.push_back(iface.name);
        if (!names.empty()) h.remove_interface(names[rng.index(names.size())]);
        break;
      }
      case 4:  // refresh alone (a no-op when detached)
        break;
    }
    check(step);
    if (::testing::Test::HasFatalFailure()) return;
    // The index still shows an attached host's old addresses after an
    // interface edit (checked above); a refresh publishes the new ones.
    // Refreshing within the step keeps every attached host refreshed
    // before the next attach or detach, the state Debug builds assert on.
    if (attached && op >= 2) {
      net.refresh_host(h);
      entry->addrs = global_addrs(h);
      check(step);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GT(shared_addr_checks, 0);
  EXPECT_GT(nearest_not_first, 0);
  EXPECT_GT(rejected_attaches, 0);
}

}  // namespace
}  // namespace vpna::netsim
