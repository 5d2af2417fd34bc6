// Transport/session-layer microbench: the PR 4 seam must be free.
//
// Measures the cost of routing every protocol client through
// `transport::Flow` instead of hand-rolled `Network::transact` calls —
// flow-vs-raw exchange throughput on the same two-router topology — plus
// the price of the retry and address-fallback machinery when a session
// policy engages it. The acceptance bar for the refactor is that the
// default single-shot Flow path stays within noise of raw transact.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "netsim/network.h"
#include "transport/flow.h"
#include "transport/policy.h"
#include "util/rng.h"

using namespace vpna;
using Clock = std::chrono::steady_clock;

namespace {

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

constexpr std::uint16_t kPort = 7777;

struct World {
  util::SimClock clock;
  netsim::Network net{clock, util::Rng(1), 0.0};
  netsim::Host client{"client"};
  netsim::Host server{"server"};
  netsim::IpAddr server_addr = netsim::IpAddr::v4(45, 0, 0, 10);
  netsim::IpAddr dead_addr = netsim::IpAddr::v4(45, 0, 0, 99);

  World() {
    const auto r0 = net.add_router("r0");
    const auto r1 = net.add_router("r1");
    net.add_link(r0, r1, 10.0);
    client.add_interface("eth0", netsim::IpAddr::v4(71, 80, 0, 10),
                         *netsim::IpAddr::parse("2600:8800::10"));
    client.routes().add({*netsim::Cidr::parse("0.0.0.0/0"), "eth0",
                         std::nullopt, 0});
    net.attach_host(client, r0, 1.0);
    server.add_interface("eth0", server_addr,
                         *netsim::IpAddr::parse("2a0e:100::10"));
    server.routes().add({*netsim::Cidr::parse("0.0.0.0/0"), "eth0",
                         std::nullopt, 0});
    net.attach_host(server, r1, 1.0);
    server.bind_service(netsim::Proto::kUdp, kPort,
                        std::make_shared<netsim::LambdaService>(
                            [](netsim::ServiceContext& ctx)
                                -> std::optional<std::string> {
                              return "echo:" + ctx.request.payload;
                            }));
    // The capture buffer grows without bound over millions of exchanges;
    // this bench measures the send path, not capture appends.
    client.capture().set_enabled(false);
    server.capture().set_enabled(false);
  }
};

constexpr int kExchanges = 200000;
constexpr int kRounds = 5;

double bench_raw(World& w) {
  double best = 1e18;
  for (int r = 0; r < kRounds; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kExchanges; ++i) {
      netsim::Packet p;
      p.dst = w.server_addr;
      p.proto = netsim::Proto::kUdp;
      p.src_port = w.client.next_ephemeral_port();
      p.dst_port = kPort;
      p.payload = "ping";
      (void)w.net.transact(w.client, std::move(p));
    }
    best = std::min(best, ms_since(t0));
  }
  return best;
}

double bench_flow(World& w) {
  double best = 1e18;
  for (int r = 0; r < kRounds; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kExchanges; ++i) {
      transport::Flow flow(w.net, w.client, netsim::Proto::kUdp,
                           w.server_addr, kPort);
      (void)flow.exchange("ping");
    }
    best = std::min(best, ms_since(t0));
  }
  return best;
}

double bench_flow_retry(World& w) {
  // Worst-case engaged machinery: dead primary, live fallback, 2 attempts
  // with virtual-time backoff. Twice the transactions plus policy logic.
  transport::SessionPolicy policy;
  policy.retry.max_attempts = 2;
  policy.retry.initial_backoff_ms = 50.0;
  policy.address_fallback = true;
  transport::ScopedSessionPolicy scope(&policy);
  double best = 1e18;
  for (int r = 0; r < kRounds; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kExchanges / 2; ++i) {
      transport::Flow flow(w.net, w.client, netsim::Proto::kUdp,
                           std::vector<netsim::IpAddr>{w.dead_addr,
                                                       w.server_addr},
                           kPort);
      (void)flow.exchange("ping");
    }
    best = std::min(best, ms_since(t0));
  }
  return best;
}

}  // namespace

int main() {
  bench::print_header("Transport seam",
                      "Flow session layer vs raw transact, retry/fallback cost");

  World w;
  const double raw_ms = bench_raw(w);
  const double flow_ms = bench_flow(w);
  const double retry_ms = bench_flow_retry(w);

  const double raw_pps = kExchanges / raw_ms * 1e3;
  const double flow_pps = kExchanges / flow_ms * 1e3;
  const double overhead_ns = (flow_ms - raw_ms) / kExchanges * 1e6;
  bench::compare("raw transact exchanges/sec", "baseline",
                 util::format("%.0f", raw_pps));
  bench::compare("Flow exchanges/sec", "<100ns/exchange over raw",
                 util::format("%.0f (+%.0fns/exchange)", flow_pps,
                              overhead_ns));
  bench::compare("Flow retry+fallback exchanges/sec", "~2x cost (2 transacts)",
                 util::format("%.0f", (kExchanges / 2) / retry_ms * 1e3));
  bench::note("the Flow seam budget is tens of ns (span + counters + result "
              "mapping) against protocol exchanges that cost microseconds; "
              "the retry row sends two packets per exchange by construction");
  return 0;
}
