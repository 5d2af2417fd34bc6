#include "transport/flow.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "netsim/network.h"
#include "transport/policy.h"

namespace vpna::transport {
namespace {

using netsim::Cidr;
using netsim::IpAddr;
using netsim::LambdaService;
using netsim::Proto;
using netsim::Route;
using netsim::ServiceContext;
using netsim::TransactStatus;

constexpr std::uint16_t kEchoPort = 7777;

// client -- r0 ---10ms--- r1 -- server, same topology as the netsim tests.
class FlowFixture : public ::testing::Test {
 protected:
  FlowFixture()
      : net_(clock_, util::Rng(1), /*jitter_stddev_ms=*/0.0),
        client_("client"),
        server_("server") {
    const auto r0 = net_.add_router("r0");
    const auto r1 = net_.add_router("r1");
    net_.add_link(r0, r1, 10.0);

    client_.add_interface("eth0", IpAddr::v4(71, 80, 0, 10),
                          *IpAddr::parse("2600:8800::10"));
    client_.routes().add(
        Route{*Cidr::parse("0.0.0.0/0"), "eth0", std::nullopt, 0});
    net_.attach_host(client_, r0, 1.0);

    server_.add_interface("eth0", IpAddr::v4(45, 0, 0, 10),
                          *IpAddr::parse("2a0e:100::10"));
    server_.routes().add(
        Route{*Cidr::parse("0.0.0.0/0"), "eth0", std::nullopt, 0});
    net_.attach_host(server_, r1, 1.0);
  }

  void bind_echo() {
    server_.bind_service(Proto::kUdp, kEchoPort,
                         std::make_shared<LambdaService>(
                             [](ServiceContext& ctx) -> std::optional<std::string> {
                               return "echo:" + ctx.request.payload;
                             }));
  }

  IpAddr server_addr() const { return IpAddr::v4(45, 0, 0, 10); }
  IpAddr dead_addr() const { return IpAddr::v4(45, 0, 0, 99); }

  util::SimClock clock_;
  netsim::Network net_;
  netsim::Host client_;
  netsim::Host server_;
};

TEST_F(FlowFixture, DefaultExchangeEchoes) {
  bind_echo();
  Flow flow(net_, client_, Proto::kUdp, server_addr(), kEchoPort);
  const auto res = flow.exchange("hello");
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.error, Error::none());
  EXPECT_EQ(res.status, TransactStatus::kOk);
  EXPECT_EQ(res.reply, "echo:hello");
  EXPECT_EQ(res.remote, server_addr());
  EXPECT_EQ(res.attempts, 1);
  // 2ms access + 20ms link both ways, no jitter.
  EXPECT_NEAR(res.rtt_ms, 24.0, 1e-9);
  EXPECT_EQ(flow.attempts(), 1);
  EXPECT_EQ(flow.exchanges(), 1);
  EXPECT_TRUE(flow.last_error().ok());
}

TEST_F(FlowFixture, FailureMapsStatusIntoTaxonomy) {
  // Nothing bound on the port: delivered but refused.
  Flow flow(net_, client_, Proto::kUdp, server_addr(), kEchoPort);
  const auto res = flow.exchange("hello");
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.error.kind, ErrorKind::kTransport);
  EXPECT_EQ(res.error.status, TransactStatus::kNoService);
  EXPECT_EQ(res.status, TransactStatus::kNoService);
  EXPECT_EQ(res.attempts, 1);
  EXPECT_EQ(error_name(res.error), "transport:no-service");
}

TEST_F(FlowFixture, EmptyCandidateListIsNotAttempted) {
  Flow flow(net_, client_, Proto::kUdp, std::vector<IpAddr>{}, kEchoPort);
  const auto res = flow.exchange("hello");
  EXPECT_FALSE(res.ok());
  EXPECT_FALSE(res.error.attempted());
  EXPECT_EQ(res.error, Error::not_attempted());
  EXPECT_EQ(res.attempts, 0);
  EXPECT_EQ(res.rtt_ms, 0.0);
  EXPECT_EQ(flow.candidate_count(), 0u);
}

TEST(RetryPolicyTest, BackoffScheduleIsGeometric) {
  RetryPolicy retry;
  retry.max_attempts = 4;
  retry.initial_backoff_ms = 100.0;
  retry.backoff_multiplier = 2.0;
  EXPECT_EQ(retry.backoff_before_attempt(1), 0.0);
  EXPECT_EQ(retry.backoff_before_attempt(2), 100.0);
  EXPECT_EQ(retry.backoff_before_attempt(3), 200.0);
  EXPECT_EQ(retry.backoff_before_attempt(4), 400.0);
  // No configured backoff: every wait is zero.
  EXPECT_EQ(RetryPolicy{}.backoff_before_attempt(2), 0.0);
}

TEST_F(FlowFixture, RetryChargesBackoffInVirtualTime) {
  // The service stays silent twice, then answers: attempt 3 succeeds.
  int calls = 0;
  server_.bind_service(Proto::kUdp, kEchoPort,
                       std::make_shared<LambdaService>(
                           [&calls](ServiceContext&) -> std::optional<std::string> {
                             return ++calls < 3 ? std::nullopt
                                                : std::optional<std::string>("up");
                           }));
  SessionPolicy policy;
  policy.retry.max_attempts = 3;
  policy.retry.initial_backoff_ms = 100.0;
  policy.retry.backoff_multiplier = 2.0;
  ScopedSessionPolicy scope(&policy);
  Flow flow(net_, client_, Proto::kUdp, server_addr(), kEchoPort);

  const double before = clock_.now().millis();
  const auto res = flow.exchange("ping");
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.reply, "up");
  EXPECT_EQ(res.attempts, 3);
  EXPECT_EQ(calls, 3);
  // 100ms before attempt 2, 200ms before attempt 3, all charged to the
  // simulation clock and to the flow's own RTT accounting.
  EXPECT_GE(res.rtt_ms, 300.0);
  EXPECT_GE(clock_.now().millis() - before, 300.0);
}

TEST_F(FlowFixture, RetryExhaustionReportsLastStatus) {
  SessionPolicy policy;
  policy.retry.max_attempts = 2;
  ScopedSessionPolicy scope(&policy);
  Flow flow(net_, client_, Proto::kUdp, dead_addr(), kEchoPort);
  const auto res = flow.exchange("ping");
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.error.kind, ErrorKind::kTransport);
  EXPECT_EQ(res.error.status, TransactStatus::kNoSuchHost);
  EXPECT_EQ(res.attempts, 2);
}

TEST_F(FlowFixture, AddressFallbackWalksCandidatesInOrder) {
  bind_echo();
  SessionPolicy policy;
  policy.address_fallback = true;
  ScopedSessionPolicy scope(&policy);
  Flow flow(net_, client_, Proto::kUdp,
            std::vector<IpAddr>{dead_addr(), server_addr()}, kEchoPort);
  ASSERT_EQ(flow.candidate_count(), 2u);
  EXPECT_EQ(flow.candidate(0), dead_addr());
  EXPECT_EQ(flow.candidate(1), server_addr());

  const auto res = flow.exchange("hello");
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.reply, "echo:hello");
  EXPECT_EQ(res.remote, server_addr());  // the address that answered
  EXPECT_EQ(res.attempts, 2);            // dead first, then the fallback
}

TEST_F(FlowFixture, FallbackOffOnlyContactsPrimary) {
  bind_echo();
  Flow flow(net_, client_, Proto::kUdp,
            std::vector<IpAddr>{dead_addr(), server_addr()}, kEchoPort);
  const auto res = flow.exchange("hello");
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.error.status, TransactStatus::kNoSuchHost);
  EXPECT_EQ(res.attempts, 1);
  EXPECT_EQ(res.remote, dead_addr());
}

TEST_F(FlowFixture, RetriedPayloadDeliversSameBytes) {
  std::vector<std::string> seen;
  int calls = 0;
  server_.bind_service(Proto::kUdp, kEchoPort,
                       std::make_shared<LambdaService>(
                           [&](ServiceContext& ctx) -> std::optional<std::string> {
                             seen.push_back(ctx.request.payload);
                             return ++calls < 2 ? std::nullopt
                                                : std::optional<std::string>("ok");
                           }));
  SessionPolicy policy;
  policy.retry.max_attempts = 2;
  ScopedSessionPolicy scope(&policy);
  Flow flow(net_, client_, Proto::kUdp, server_addr(), kEchoPort);
  const auto res = flow.exchange("payload-bytes");
  EXPECT_TRUE(res.ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "payload-bytes");
  EXPECT_EQ(seen[1], "payload-bytes");
}

TEST_F(FlowFixture, UdpDrawsOneEphemeralPortPerAttempt) {
  const auto mark = client_.next_ephemeral_port();
  SessionPolicy policy;
  policy.retry.max_attempts = 3;
  ScopedSessionPolicy scope(&policy);
  Flow flow(net_, client_, Proto::kUdp, dead_addr(), kEchoPort);
  (void)flow.exchange("x");
  // Three attempts drew three ports after the marker.
  EXPECT_EQ(client_.next_ephemeral_port(), mark + 4);
}

TEST_F(FlowFixture, IcmpNeverDrawsEphemeralPorts) {
  const auto mark = client_.next_ephemeral_port();
  Flow probe(net_, client_, Proto::kIcmpEcho, server_addr(), 0);
  const auto res = probe.exchange({});
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(client_.next_ephemeral_port(), mark + 1);
}

TEST_F(FlowFixture, PinnedSrcPortSkipsEphemeralDraw) {
  std::uint16_t seen_port = 0;
  server_.bind_service(Proto::kUdp, kEchoPort,
                       std::make_shared<LambdaService>(
                           [&](ServiceContext& ctx) -> std::optional<std::string> {
                             seen_port = ctx.request.src_port;
                             return "ok";
                           }));
  const auto mark = client_.next_ephemeral_port();
  Flow flow(net_, client_, Proto::kUdp, server_addr(), kEchoPort);
  flow.pin_src_port(12345);
  const auto res = flow.exchange("x");
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(seen_port, 12345);
  EXPECT_EQ(client_.next_ephemeral_port(), mark + 1);
}

TEST_F(FlowFixture, FlowReusableAcrossExchanges) {
  bind_echo();
  Flow flow(net_, client_, Proto::kUdp, server_addr(), kEchoPort);
  const auto a = flow.exchange("one");
  const auto b = flow.exchange("two");
  EXPECT_EQ(a.reply, "echo:one");
  EXPECT_EQ(b.reply, "echo:two");
  EXPECT_EQ(flow.exchanges(), 2);
  EXPECT_EQ(flow.attempts(), 2);
}

}  // namespace
}  // namespace vpna::transport
