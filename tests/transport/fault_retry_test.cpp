// The retry/fallback machinery under injected faults: a fault window fails
// the first attempt, the sim-clock backoff carries the flow past the
// window, and the retry succeeds. Retry and fallback come only from the
// thread-bound SessionPolicy, so every case binds one — and the protocol
// clients (dns, tls, http) are checked to inherit it.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "dns/client.h"
#include "dns/server.h"
#include "faults/injector.h"
#include "faults/profile.h"
#include "http/client.h"
#include "http/server.h"
#include "netsim/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tlssim/handshake.h"
#include "transport/flow.h"
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

// Two attempts, the second 600 ms after the first times out.
SessionPolicy two_attempts() {
  SessionPolicy policy;
  policy.retry.max_attempts = 2;
  policy.retry.initial_backoff_ms = 600.0;
  return policy;
}

netsim::TransactOptions timeout(double ms) {
  netsim::TransactOptions opts;
  opts.timeout_ms = ms;
  return opts;
}

// client -- r0 ---10ms--- r1 -- server, same topology as flow_test.
class FaultRetryFixture : public ::testing::Test {
 protected:
  FaultRetryFixture()
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

  // Installs an outage on the server address over [0, duration_ms).
  void install_outage(double duration_ms) {
    faults::FaultPlan plan;
    plan.seed = 11;
    faults::AddrOutage outage;
    outage.addr = server_addr();
    outage.window = {0.0, duration_ms, 0.0};
    plan.addr_outages.push_back(outage);
    net_.set_fault_injector(
        std::make_shared<faults::Injector>(std::move(plan)));
  }

  IpAddr server_addr() const { return IpAddr::v4(45, 0, 0, 10); }

  util::SimClock clock_;
  netsim::Network net_;
  netsim::Host client_;
  netsim::Host server_;
};

TEST_F(FaultRetryFixture, RetryRidesOutAFaultWindow) {
  install_outage(/*duration_ms=*/500.0);

  const SessionPolicy policy = two_attempts();
  ScopedSessionPolicy scope(&policy);
  Flow flow(net_, client_, Proto::kUdp, server_addr(), kEchoPort,
            timeout(300.0));

  obs::MetricsRegistry metrics;
  const double before = clock_.now().millis();
  FlowResult res;
  {
    obs::ScopedObservation observe(nullptr, &metrics);
    res = flow.exchange("hello");
  }

  // Attempt 1 at t=0 hits the outage (charged 300ms), the 600ms backoff
  // pushes attempt 2 to t=900ms — past the window — and it succeeds.
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.reply, "echo:hello");
  EXPECT_EQ(res.attempts, 2);
  EXPECT_GE(clock_.now().millis() - before, 900.0);
  EXPECT_GE(res.rtt_ms, 900.0);  // timeout + backoff all charged to the flow

  // The retry and the injected fault are both visible in metrics.
  EXPECT_EQ(metrics.counter("transport.retries"), 1u);
  EXPECT_EQ(metrics.counter("faults.addr_outage"), 1u);
  EXPECT_EQ(metrics.counter("faults.injected"), 1u);
  EXPECT_EQ(metrics.counter("transport.failures"), 0u);
}

TEST_F(FaultRetryFixture, ExhaustedRetriesReportTheDrop) {
  install_outage(/*duration_ms=*/1e9);  // never lifts

  SessionPolicy policy;
  policy.retry.max_attempts = 3;
  policy.retry.initial_backoff_ms = 100.0;
  ScopedSessionPolicy scope(&policy);
  Flow flow(net_, client_, Proto::kUdp, server_addr(), kEchoPort,
            timeout(300.0));

  obs::MetricsRegistry metrics;
  FlowResult res;
  {
    obs::ScopedObservation observe(nullptr, &metrics);
    res = flow.exchange("hello");
  }
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.error.kind, ErrorKind::kTransport);
  EXPECT_EQ(res.error.status, TransactStatus::kDropped);
  EXPECT_EQ(res.attempts, 3);
  EXPECT_EQ(metrics.counter("transport.retries"), 2u);
  EXPECT_EQ(metrics.counter("transport.failures"), 1u);
  EXPECT_EQ(metrics.counter("faults.addr_outage"), 3u);
}

TEST_F(FaultRetryFixture, SessionPolicyArmsDefaultFlows) {
  install_outage(/*duration_ms=*/500.0);

  const SessionPolicy policy = two_attempts();
  ScopedSessionPolicy scope(&policy);
  ASSERT_EQ(session_policy(), &policy);

  // A flow constructed while the policy is bound adopts it.
  Flow flow(net_, client_, Proto::kUdp, server_addr(), kEchoPort,
            timeout(300.0));
  const auto res = flow.exchange("hello");
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.attempts, 2);
}

TEST_F(FaultRetryFixture, FlowKeepsThePolicyBoundAtConstruction) {
  install_outage(/*duration_ms=*/500.0);

  // The policy is read once: a flow built inside the scope keeps retrying
  // after the scope ends, and one built outside never retries.
  const SessionPolicy policy = two_attempts();
  std::optional<Flow> armed;
  {
    ScopedSessionPolicy scope(&policy);
    armed.emplace(net_, client_, Proto::kUdp, server_addr(), kEchoPort,
                  timeout(300.0));
  }
  Flow plain(net_, client_, Proto::kUdp, server_addr(), kEchoPort,
             timeout(300.0));
  {
    ScopedSessionPolicy scope(&policy);
    EXPECT_FALSE(plain.exchange("hello").ok());  // t=0: in the outage
  }
  const auto res = armed->exchange("hello");  // t=300: one more drop
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.attempts, 2);
  EXPECT_EQ(plain.attempts(), 1);
}

TEST_F(FaultRetryFixture, SessionPolicyScopeRestoresOnExit) {
  EXPECT_EQ(session_policy(), nullptr);
  SessionPolicy outer;
  {
    ScopedSessionPolicy a(&outer);
    EXPECT_EQ(session_policy(), &outer);
    SessionPolicy inner;
    {
      ScopedSessionPolicy b(&inner);
      EXPECT_EQ(session_policy(), &inner);
    }
    EXPECT_EQ(session_policy(), &outer);
  }
  EXPECT_EQ(session_policy(), nullptr);

  // With no policy bound, flows keep the single-attempt default.
  install_outage(/*duration_ms=*/1e9);
  Flow flow(net_, client_, Proto::kUdp, server_addr(), kEchoPort,
            timeout(300.0));
  const auto res = flow.exchange("hello");
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.attempts, 1);
}

TEST_F(FaultRetryFixture, ProfilePoliciesRideOutFlakyOutages) {
  // The real wiring: the flaky profile's session policy (as bound by
  // run_shard_body) must survive a gateway flap comparable to what
  // FaultPlan::generate schedules.
  install_outage(/*duration_ms=*/800.0);
  ScopedSessionPolicy scope(
      faults::session_policy_for(faults::FaultProfile::kFlaky));

  Flow flow(net_, client_, Proto::kUdp, server_addr(), kEchoPort);
  const auto res = flow.exchange("hello");
  EXPECT_TRUE(res.ok());
  EXPECT_GT(res.attempts, 1);
}

TEST_F(FaultRetryFixture, FallbackPlusFaultsWalksToTheLiveAddress) {
  install_outage(/*duration_ms=*/1e9);  // primary permanently dark

  netsim::Host backup("backup");
  backup.add_interface("eth0", IpAddr::v4(45, 0, 0, 20), std::nullopt);
  backup.routes().add(
      Route{*Cidr::parse("0.0.0.0/0"), "eth0", std::nullopt, 0});
  // Attach to r1 like the primary server.
  net_.attach_host(backup, 1, 1.0);
  backup.bind_service(
      Proto::kUdp, kEchoPort,
      std::make_shared<LambdaService>(
          [](ServiceContext&) -> std::optional<std::string> {
            return "backup-up";
          }));

  SessionPolicy policy;
  policy.address_fallback = true;
  ScopedSessionPolicy scope(&policy);
  Flow flow(net_, client_, Proto::kUdp,
            std::vector<IpAddr>{server_addr(), IpAddr::v4(45, 0, 0, 20)},
            kEchoPort, timeout(300.0));
  const auto res = flow.exchange("hello");
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.reply, "backup-up");
  EXPECT_EQ(res.remote, IpAddr::v4(45, 0, 0, 20));
  EXPECT_EQ(res.attempts, 2);
}

// --- Protocol clients -------------------------------------------------------
// The session policy is the only way the dns, tls and http layers retry.
// Each row makes one call at a server (DNS authority, web site and TLS
// terminator for kSite) that is dark for the first 500 ms.

constexpr char kSite[] = "site.test";

struct ClientCall {
  const char* name;
  // Makes the call; true when it succeeded.
  bool (*call)(netsim::Network& net, netsim::Host& client,
               const IpAddr& server);
};

void PrintTo(const ClientCall& c, std::ostream* os) { *os << c.name; }

const ClientCall kClientCalls[] = {
    {"DnsQuery",
     [](netsim::Network& net, netsim::Host& client, const IpAddr& server) {
       return dns::query(net, client, server, kSite, dns::RrType::kA).ok();
     }},
    {"DnsResolveBrowser",
     [](netsim::Network& net, netsim::Host& client, const IpAddr&) {
       return dns::resolve_browser(net, client, kSite, dns::RrType::kA).ok();
     }},
    {"TlsHandshake",
     [](netsim::Network& net, netsim::Host& client, const IpAddr& server) {
       const tlssim::CaStore store;
       tlssim::ChainMemo memo;
       return tlssim::tls_handshake(net, client, server, kSite, store, memo)
           .completed();
     }},
    {"HttpFetch",
     [](netsim::Network& net, netsim::Host& client, const IpAddr&) {
       return http::HttpClient(net, client)
           .fetch(std::string("http://") + kSite + "/")
           .ok();
     }},
};

class ClientPolicyFixture : public FaultRetryFixture,
                            public ::testing::WithParamInterface<ClientCall> {
 protected:
  ClientPolicyFixture() {
    auto authority = std::make_shared<dns::AuthoritativeService>();
    dns::ZoneRecord record;
    record.a = {server_addr()};
    authority->add_record(kSite, record);
    server_.bind_service(Proto::kUdp, netsim::kPortDns, authority);

    auto site = std::make_shared<http::Site>();
    site->hostname = kSite;
    site->pages["/"] = http::make_basic_page(kSite, "Site", 0);
    auto web = std::make_shared<http::WebServerService>(site);
    server_.bind_service(Proto::kTcp, netsim::kPortHttp, web);

    auto tls = std::make_shared<tlssim::TlsTerminator>(
        std::make_shared<const tlssim::CertChain>(
            tlssim::issue_chain(kSite, "SimTrust Root CA", 1)),
        web);
    server_.bind_service(Proto::kTcp, netsim::kPortHttps, tls);

    client_.dns_servers().push_back(server_addr());
    install_outage(/*duration_ms=*/500.0);
  }

  // Makes the row's call with `metrics` bound.
  bool call(obs::MetricsRegistry& metrics) {
    obs::ScopedObservation observe(nullptr, &metrics);
    return GetParam().call(net_, client_, server_addr());
  }
};

TEST_P(ClientPolicyFixture, BoundPolicyRetriesPastTheOutage) {
  const SessionPolicy policy = two_attempts();
  ScopedSessionPolicy scope(&policy);
  obs::MetricsRegistry metrics;
  EXPECT_TRUE(call(metrics));
  EXPECT_GE(metrics.counter("transport.retries"), 1u);
}

TEST_P(ClientPolicyFixture, NoPolicyFailsAfterOneAttempt) {
  obs::MetricsRegistry metrics;
  EXPECT_FALSE(call(metrics));
  EXPECT_EQ(metrics.counter("transport.retries"), 0u);
  // One packet sent, and the outage dropped it.
  EXPECT_EQ(metrics.counter("faults.injected"), 1u);
  EXPECT_EQ(metrics.counter("transport.failures"), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Clients, ClientPolicyFixture, ::testing::ValuesIn(kClientCalls),
    [](const ::testing::TestParamInfo<ClientCall>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace vpna::transport
