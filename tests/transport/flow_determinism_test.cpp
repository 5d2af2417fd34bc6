// Randomized cross-`--jobs` determinism for the transport layer.
//
// The campaign engine's contract is that results are byte-identical at any
// worker count. The transport layer adds machinery that could silently
// break that — retry backoff charged to the clock, multi-address fallback,
// per-attempt ephemeral port draws — so this suite runs randomized flow
// scenarios (seeded topology, flaky services, retry/fallback policies)
// under a TaskPool at different worker counts and demands identical
// payload transcripts, captured packet bytes, and sim-time accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "netsim/network.h"
#include "transport/flow.h"
#include "transport/policy.h"
#include "util/task_pool.h"

namespace vpna::transport {
namespace {

using netsim::Cidr;
using netsim::IpAddr;
using netsim::LambdaService;
using netsim::Proto;
using netsim::Route;
using netsim::ServiceContext;

constexpr std::uint16_t kPort = 7777;
constexpr int kScenarios = 32;

struct ScenarioDigest {
  std::string transcript;   // reply bytes + error names + attempts, in order
  std::string capture;      // tcpdump-style rendering of every client packet
  double total_rtt_ms = 0;  // sum of per-exchange RTT (backoff included)
  double clock_end_ms = 0;  // final virtual time
  int attempts = 0;

  bool operator==(const ScenarioDigest&) const = default;
};

// One self-contained world per seed: link latency, service flakiness,
// retry schedule, candidate order and payload sizes all derive from the
// seed, never from wall time or thread identity.
ScenarioDigest run_scenario(std::uint64_t seed) {
  util::Rng cfg(seed * 2654435761u + 17);
  util::SimClock clock;
  netsim::Network net(clock, util::Rng(seed), /*jitter_stddev_ms=*/0.0);
  netsim::Host client("client");
  netsim::Host server("server");

  const auto r0 = net.add_router("r0");
  const auto r1 = net.add_router("r1");
  net.add_link(r0, r1, cfg.uniform(1.0, 40.0));

  client.add_interface("eth0", IpAddr::v4(71, 80, 0, 10),
                       *IpAddr::parse("2600:8800::10"));
  client.routes().add(
      Route{*Cidr::parse("0.0.0.0/0"), "eth0", std::nullopt, 0});
  net.attach_host(client, r0, cfg.uniform(0.5, 2.0));

  const IpAddr server_addr = IpAddr::v4(45, 0, 0, 10);
  const IpAddr dead_addr = IpAddr::v4(45, 0, 0, 99);
  server.add_interface("eth0", server_addr, *IpAddr::parse("2a0e:100::10"));
  server.routes().add(
      Route{*Cidr::parse("0.0.0.0/0"), "eth0", std::nullopt, 0});
  net.attach_host(server, r1, cfg.uniform(0.5, 2.0));

  // Flaky echo: silent for the first `failures` calls, then answers.
  const int failures = static_cast<int>(cfg.uniform_int(0, 3));
  int calls = 0;
  server.bind_service(
      Proto::kUdp, kPort,
      std::make_shared<LambdaService>(
          [&calls, failures](ServiceContext& ctx) -> std::optional<std::string> {
            if (++calls <= failures) return std::nullopt;
            return "echo:" + ctx.request.payload;
          }));

  ScenarioDigest d;
  const int n_flows = static_cast<int>(cfg.uniform_int(1, 4));
  for (int i = 0; i < n_flows; ++i) {
    netsim::TransactOptions opts;
    opts.timeout_ms = cfg.uniform(200.0, 1500.0);
    SessionPolicy policy;
    policy.retry.max_attempts = static_cast<int>(cfg.uniform_int(1, 4));
    policy.retry.initial_backoff_ms = cfg.uniform(0.0, 50.0);
    policy.retry.backoff_multiplier = cfg.uniform(1.0, 3.0);
    policy.address_fallback = cfg.chance(0.5);

    std::vector<IpAddr> candidates;
    if (cfg.chance(0.4)) candidates.push_back(dead_addr);
    candidates.push_back(server_addr);

    ScopedSessionPolicy scope(&policy);
    Flow flow(net, client, Proto::kUdp, std::move(candidates), kPort, opts);
    const auto res =
        flow.exchange("probe-" + std::to_string(seed) + "-" + std::to_string(i));
    d.transcript += res.reply + "|" + error_name(res.error) + "|" +
                    std::to_string(res.attempts) + ";";
    d.total_rtt_ms += res.rtt_ms;
    d.attempts += res.attempts;
  }
  d.capture = client.capture().dump(/*max_lines=*/1000);
  d.clock_end_ms = clock.now().millis();
  return d;
}

std::vector<ScenarioDigest> run_all(std::size_t workers) {
  util::TaskPool pool(workers);
  std::vector<std::future<ScenarioDigest>> futures;
  futures.reserve(kScenarios);
  for (int s = 0; s < kScenarios; ++s) {
    futures.push_back(
        pool.submit([s] { return run_scenario(static_cast<std::uint64_t>(s)); }));
  }
  std::vector<ScenarioDigest> out;
  out.reserve(kScenarios);
  for (auto& f : futures) out.push_back(f.get());
  return out;
}

TEST(FlowDeterminism, IdenticalAcrossWorkerCounts) {
  const auto serial = run_all(1);
  for (const std::size_t workers : {2u, 4u, 8u}) {
    const auto parallel = run_all(workers);
    ASSERT_EQ(parallel.size(), serial.size());
    for (int s = 0; s < kScenarios; ++s) {
      EXPECT_EQ(parallel[s].transcript, serial[s].transcript)
          << "seed " << s << " workers " << workers;
      EXPECT_EQ(parallel[s].capture, serial[s].capture)
          << "seed " << s << " workers " << workers;
      // Sim-time accounting must be bit-identical, not merely close:
      // backoff and RTT arithmetic is deterministic per seed.
      EXPECT_EQ(parallel[s].total_rtt_ms, serial[s].total_rtt_ms)
          << "seed " << s << " workers " << workers;
      EXPECT_EQ(parallel[s].clock_end_ms, serial[s].clock_end_ms)
          << "seed " << s << " workers " << workers;
      EXPECT_EQ(parallel[s].attempts, serial[s].attempts)
          << "seed " << s << " workers " << workers;
    }
  }
}

TEST(FlowDeterminism, RerunIsIdempotent) {
  // Same seed, same world, twice in a row on one thread: the digest is a
  // pure function of the seed.
  EXPECT_EQ(run_scenario(7), run_scenario(7));
  EXPECT_EQ(run_scenario(23), run_scenario(23));
}

TEST(FlowDeterminism, ScenariosActuallyExerciseTheMachinery) {
  // Guard against the randomized config degenerating into all-defaults:
  // across the corpus we must see retries, fallback switches and failures.
  int multi_attempt = 0, with_fallback_hit = 0, failed = 0;
  for (int s = 0; s < kScenarios; ++s) {
    const auto d = run_scenario(static_cast<std::uint64_t>(s));
    // transcript entries: reply|error|attempts;
    if (d.attempts > std::count(d.transcript.begin(), d.transcript.end(), ';'))
      ++multi_attempt;
    if (d.transcript.find("transport:") != std::string::npos) ++failed;
    if (d.capture.find("45.0.0.99") != std::string::npos) ++with_fallback_hit;
  }
  EXPECT_GT(multi_attempt, 0);
  EXPECT_GT(with_fallback_hit, 0);
  EXPECT_GT(failed, 0);
}

}  // namespace
}  // namespace vpna::transport
