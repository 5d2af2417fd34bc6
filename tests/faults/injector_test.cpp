#include "faults/injector.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "netsim/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "transport/flow.h"

namespace vpna::faults {
namespace {

using netsim::Cidr;
using netsim::IpAddr;
using netsim::LambdaService;
using netsim::Proto;
using netsim::Route;
using netsim::ServiceContext;
using netsim::TransactStatus;

constexpr std::uint16_t kEchoPort = 7777;

netsim::Packet make_packet(std::uint8_t host_octet, std::uint16_t src_port,
                           std::uint16_t dst_port = kEchoPort) {
  netsim::Packet p;
  p.src = IpAddr::v4(71, 80, 0, 10);
  p.dst = IpAddr::v4(45, 0, 0, host_octet);
  p.proto = Proto::kUdp;
  p.src_port = src_port;
  p.dst_port = dst_port;
  return p;
}

// --- Pure verdict tests (no network) -------------------------------------

TEST(InjectorTest, EmptyPlanNeverFires) {
  Injector injector(FaultPlan{});
  const netsim::RouterId path[] = {0, 1, 2};
  for (int i = 0; i < 100; ++i) {
    const auto v = injector.on_deliver(make_packet(10, 50000), path, 3,
                                       1000.0 * i);
    EXPECT_FALSE(v.drop);
    EXPECT_EQ(v.extra_latency_ms, 0.0);
  }
}

TEST(InjectorTest, AddrOutageDropsOnlyInWindow) {
  FaultPlan plan;
  plan.seed = 9;
  AddrOutage outage;
  outage.addr = IpAddr::v4(45, 0, 0, 10);
  outage.window = {1'000.0, 500.0, 0.0};
  plan.addr_outages.push_back(outage);
  Injector injector(std::move(plan));

  EXPECT_FALSE(injector.on_deliver(make_packet(10, 1), nullptr, 0, 0.0).drop);
  EXPECT_TRUE(
      injector.on_deliver(make_packet(10, 1), nullptr, 0, 1'200.0).drop);
  // Other destinations unaffected even inside the window.
  EXPECT_FALSE(
      injector.on_deliver(make_packet(11, 1), nullptr, 0, 1'200.0).drop);
  EXPECT_FALSE(
      injector.on_deliver(make_packet(10, 1), nullptr, 0, 1'600.0).drop);
}

TEST(InjectorTest, RouterOutageDropsPathsThroughIt) {
  FaultPlan plan;
  plan.seed = 9;
  RouterOutage outage;
  outage.router = 5;
  outage.window = {0.0, 1'000.0, 0.0};
  plan.router_outages.push_back(outage);
  Injector injector(std::move(plan));

  const netsim::RouterId through[] = {1, 5, 9};
  const netsim::RouterId around[] = {1, 6, 9};
  EXPECT_TRUE(injector.on_deliver(make_packet(10, 1), through, 3, 10.0).drop);
  EXPECT_FALSE(injector.on_deliver(make_packet(10, 1), around, 3, 10.0).drop);
  // Window over: the router is back.
  EXPECT_TRUE(injector.on_deliver(make_packet(10, 1), through, 3, 999.0).drop);
  EXPECT_FALSE(
      injector.on_deliver(make_packet(10, 1), through, 3, 1'001.0).drop);
}

TEST(InjectorTest, BlackholeLinkDropsEveryCrossing) {
  FaultPlan plan;
  plan.seed = 9;
  LinkFault fault;
  fault.a = 2;
  fault.b = 3;
  fault.window = {0.0, 1'000.0, 0.0};
  fault.drop_probability = 1.0;
  plan.link_faults.push_back(fault);
  Injector injector(std::move(plan));

  const netsim::RouterId crossing[] = {1, 2, 3, 4};
  const netsim::RouterId reverse[] = {4, 3, 2, 1};  // undirected
  const netsim::RouterId elsewhere[] = {1, 2, 4, 5};
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(
        injector.on_deliver(make_packet(10, 1), crossing, 4, 10.0).drop);
    EXPECT_TRUE(injector.on_deliver(make_packet(10, 1), reverse, 4, 10.0).drop);
    EXPECT_FALSE(
        injector.on_deliver(make_packet(10, 1), elsewhere, 4, 10.0).drop);
  }
}

TEST(InjectorTest, LossyLinkAddsLatencyToSurvivors) {
  FaultPlan plan;
  plan.seed = 9;
  LinkFault fault;
  fault.a = 2;
  fault.b = 3;
  fault.window = {0.0, 1e9, 0.0};
  fault.drop_probability = 0.0;  // pure latency fault
  fault.extra_latency_ms = 17.0;
  plan.link_faults.push_back(fault);
  Injector injector(std::move(plan));

  const netsim::RouterId crossing[] = {2, 3};
  const auto v = injector.on_deliver(make_packet(10, 1), crossing, 2, 10.0);
  EXPECT_FALSE(v.drop);
  EXPECT_EQ(v.extra_latency_ms, 17.0);
}

TEST(InjectorTest, LatencySpikeAppliesGlobally) {
  FaultPlan plan;
  plan.seed = 9;
  plan.latency_spike = {0.0, 1'000.0, 0.0};
  plan.latency_spike_ms = 42.0;
  Injector injector(std::move(plan));

  EXPECT_EQ(injector.on_deliver(make_packet(10, 1), nullptr, 0, 10.0)
                .extra_latency_ms,
            42.0);
  EXPECT_EQ(injector.on_deliver(make_packet(10, 1), nullptr, 0, 2'000.0)
                .extra_latency_ms,
            0.0);
}

TEST(InjectorTest, CounterPrngIsReplayDeterministic) {
  FaultPlan plan;
  plan.seed = 1234;
  plan.packet_drop_probability = 0.5;

  // Two fresh injectors over the same plan replay identical drop sequences.
  Injector a(plan);
  Injector b(plan);
  int drops = 0;
  for (int i = 0; i < 200; ++i) {
    const auto va = a.on_deliver(make_packet(10, 1), nullptr, 0, 10.0 * i);
    const auto vb = b.on_deliver(make_packet(10, 1), nullptr, 0, 10.0 * i);
    EXPECT_EQ(va.drop, vb.drop) << "roll " << i;
    if (va.drop) ++drops;
  }
  // p=0.5 over 200 rolls: sanity bounds, not a statistics test.
  EXPECT_GT(drops, 50);
  EXPECT_LT(drops, 150);
}

TEST(InjectorTest, SourcePortDoesNotChangeTheRollStream) {
  // transport::Flow redraws the ephemeral source port per attempt; the flow
  // id must ignore it so a retry continues the same roll stream.
  FaultPlan plan;
  plan.seed = 77;
  plan.packet_drop_probability = 0.5;
  Injector a(plan);
  Injector b(plan);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.on_deliver(make_packet(10, 40'000), nullptr, 0, 10.0);
    const auto vb = b.on_deliver(
        make_packet(10, static_cast<std::uint16_t>(40'000 + i)), nullptr, 0,
        10.0);
    EXPECT_EQ(va.drop, vb.drop) << "roll " << i;
  }
}

TEST(InjectorTest, DistinctFlowsRollIndependentStreams) {
  FaultPlan plan;
  plan.seed = 77;
  plan.packet_drop_probability = 0.5;
  Injector injector(plan);
  // Interleaving a second flow must not shift the first flow's stream.
  Injector reference(plan);
  for (int i = 0; i < 100; ++i) {
    const auto va =
        injector.on_deliver(make_packet(10, 1), nullptr, 0, 10.0);
    (void)injector.on_deliver(make_packet(11, 1), nullptr, 0, 10.0);
    const auto vr =
        reference.on_deliver(make_packet(10, 1), nullptr, 0, 10.0);
    EXPECT_EQ(va.drop, vr.drop) << "roll " << i;
  }
}

TEST(InjectorTest, FaultsAreCountedOnTheBoundRegistry) {
  FaultPlan plan;
  plan.seed = 9;
  AddrOutage outage;
  outage.addr = IpAddr::v4(45, 0, 0, 10);
  outage.window = {0.0, 1'000.0, 0.0};
  plan.addr_outages.push_back(outage);
  plan.latency_spike = {0.0, 1'000.0, 0.0};
  plan.latency_spike_ms = 5.0;
  Injector injector(std::move(plan));

  obs::MetricsRegistry metrics;
  {
    obs::ScopedObservation scope(nullptr, &metrics);
    (void)injector.on_deliver(make_packet(10, 1), nullptr, 0, 10.0);  // outage
    (void)injector.on_deliver(make_packet(11, 1), nullptr, 0, 10.0);  // spike
  }
  EXPECT_EQ(metrics.counter("faults.addr_outage"), 1u);
  EXPECT_EQ(metrics.counter("faults.latency_spike"), 1u);
  EXPECT_EQ(metrics.counter("faults.injected"), 2u);
  EXPECT_EQ(metrics.counter_prefix_sum("faults."), 4u);
  EXPECT_EQ(injector.injected(), 2u);

  // Unbound: verdicts identical, nothing counted on a registry; the
  // injector still counts the fault it injected.
  const auto v = injector.on_deliver(make_packet(10, 1), nullptr, 0, 10.0);
  EXPECT_TRUE(v.drop);
  EXPECT_EQ(metrics.counter("faults.injected"), 2u);
  EXPECT_EQ(injector.injected(), 3u);
}

// --- Network integration --------------------------------------------------

// client -- r0 ---10ms--- r1 -- server, the transport test topology.
class InjectedNetworkFixture : public ::testing::Test {
 protected:
  InjectedNetworkFixture()
      : net_(clock_, util::Rng(1), /*jitter_stddev_ms=*/0.0),
        client_("client"),
        server_("server") {
    const auto r0 = net_.add_router("r0");
    const auto r1 = net_.add_router("r1");
    net_.add_link(r0, r1, 10.0);

    client_.add_interface("eth0", IpAddr::v4(71, 80, 0, 10), std::nullopt);
    client_.routes().add(
        Route{*Cidr::parse("0.0.0.0/0"), "eth0", std::nullopt, 0});
    net_.attach_host(client_, r0, 1.0);

    server_.add_interface("eth0", IpAddr::v4(45, 0, 0, 10), std::nullopt);
    server_.routes().add(
        Route{*Cidr::parse("0.0.0.0/0"), "eth0", std::nullopt, 0});
    net_.attach_host(server_, r1, 1.0);

    server_.bind_service(
        Proto::kUdp, kEchoPort,
        std::make_shared<LambdaService>(
            [](ServiceContext& ctx) -> std::optional<std::string> {
              return "echo:" + ctx.request.payload;
            }));
  }

  IpAddr server_addr() const { return IpAddr::v4(45, 0, 0, 10); }

  util::SimClock clock_;
  netsim::Network net_;
  netsim::Host client_;
  netsim::Host server_;
};

TEST_F(InjectedNetworkFixture, OutageWindowDropsAndChargesTimeout) {
  FaultPlan plan;
  plan.seed = 5;
  AddrOutage outage;
  outage.addr = server_addr();
  outage.window = {0.0, 500.0, 0.0};
  plan.addr_outages.push_back(outage);
  net_.set_fault_injector(std::make_shared<Injector>(std::move(plan)));

  transport::Flow flow(net_, client_, Proto::kUdp, server_addr(), kEchoPort);
  const double before = clock_.now().millis();
  const auto res = flow.exchange("hello");
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status, TransactStatus::kDropped);
  // The drop charged the full flow timeout to the virtual clock, putting us
  // past the outage window: the same flow now succeeds.
  EXPECT_GE(clock_.now().millis() - before, 1000.0);
  const auto again = flow.exchange("hello");
  EXPECT_TRUE(again.ok());
  EXPECT_EQ(again.reply, "echo:hello");
}

TEST_F(InjectedNetworkFixture, LatencySpikeStretchesRtt) {
  // Baseline RTT without faults: 2ms access + 20ms link both ways = 24ms.
  transport::Flow baseline(net_, client_, Proto::kUdp, server_addr(),
                           kEchoPort);
  const auto clean = baseline.exchange("x");
  ASSERT_TRUE(clean.ok());

  FaultPlan plan;
  plan.seed = 5;
  plan.latency_spike = {0.0, 1e9, 0.0};
  plan.latency_spike_ms = 30.0;
  net_.set_fault_injector(std::make_shared<Injector>(std::move(plan)));

  transport::Flow slowed(net_, client_, Proto::kUdp, server_addr(), kEchoPort);
  const auto spiked = slowed.exchange("x");
  ASSERT_TRUE(spiked.ok());
  // The spike is charged per direction: +60ms on the round trip.
  EXPECT_NEAR(spiked.rtt_ms - clean.rtt_ms, 60.0, 1e-6);
}

TEST_F(InjectedNetworkFixture, InjectorNeverPerturbsCleanResults) {
  // An installed injector whose windows never open must leave results and
  // rng-dependent timings bit-identical to no injector at all.
  transport::Flow before(net_, client_, Proto::kUdp, server_addr(), kEchoPort);
  const auto clean = before.exchange("x");

  FaultPlan plan;
  plan.seed = 5;
  AddrOutage outage;
  outage.addr = server_addr();
  outage.window = {1e12, 1.0, 0.0};  // effectively never
  plan.addr_outages.push_back(outage);
  net_.set_fault_injector(std::make_shared<Injector>(std::move(plan)));

  transport::Flow after(net_, client_, Proto::kUdp, server_addr(), kEchoPort);
  const auto behind = after.exchange("x");
  EXPECT_EQ(clean.reply, behind.reply);
  EXPECT_EQ(clean.rtt_ms, behind.rtt_ms);
}

}  // namespace
}  // namespace vpna::faults
