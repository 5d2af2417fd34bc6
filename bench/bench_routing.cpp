// Packet-plane fast-path microbench: LPM route lookup (a linear scan),
// all-pairs path resolution on a frozen (plane-served) vs unfrozen
// (on-demand Dijkstra) network, cold vs shared-plane campaign shard setup,
// and end-to-end transact packets/sec. The numbers back the PR 3
// acceptance bar (≥2x on the packet hot path).
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "ecosystem/testbed.h"
#include "inet/world.h"
#include "netsim/host.h"
#include "netsim/network.h"
#include "util/rng.h"

using namespace vpna;
using Clock = std::chrono::steady_clock;

namespace {

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// --- 1. route lookup: the linear longest-prefix scan -----------------------

netsim::IpAddr random_v4(util::Rng& rng) {
  return netsim::IpAddr::v4(static_cast<std::uint32_t>(rng.next() >> 32));
}

void bench_route_lookup(std::size_t n_routes, const char* label) {
  util::Rng rng(1);
  netsim::RouteTable table;
  table.add({*netsim::Cidr::parse("0.0.0.0/0"), "eth0", std::nullopt, 0});
  // Realistic prefix-length mix (BGP-style concentration on a few
  // lengths); the scan cost grows with the route count.
  constexpr std::array<int, 4> kLens = {8, 16, 24, 32};
  for (std::size_t i = 1; i < n_routes; ++i) {
    const int len = kLens[rng.index(kLens.size())];
    table.add({netsim::Cidr(random_v4(rng), len),
               i % 2 ? "tun0" : "eth0", std::nullopt,
               static_cast<int>(rng.uniform_int(0, 3))});
  }
  std::vector<netsim::IpAddr> queries;
  for (int i = 0; i < 4096; ++i) queries.push_back(random_v4(rng));

  // Best-of-rounds (see bench_transact_pps on why).
  constexpr int kRounds = 10;
  std::size_t sink = 0;
  double best_ms = 1e18;
  for (int r = 0; r < kRounds; ++r) {
    const auto t0 = Clock::now();
    for (const auto& q : queries) sink += table.lookup(q)->interface_name.size();
    best_ms = std::min(best_ms, ms_since(t0));
  }
  const double ns_per_lookup = 1e6 * best_ms / 4096.0;

  std::printf("%-26s %7.1f ns/op   (%zu)\n", label, ns_per_lookup, sink);
  bench::compare(label, "~1 ns/route (host tables: <10)",
                 util::format("%.1f ns/lookup", ns_per_lookup));
}

// --- 2. all-pairs path resolution: plane vs per-pair Dijkstra ---------------

void bench_path_resolution() {
  // A world-sized core (~137 routers: 90 cities + 47 datacenters) built
  // twice with identical wiring; one side freezes.
  constexpr std::size_t kRouters = 137;
  util::Rng rng(2);
  std::vector<std::array<double, 3>> edges;  // (a, b, latency)
  for (std::size_t i = 1; i < kRouters; ++i)
    edges.push_back({static_cast<double>(i),
                     static_cast<double>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1)),
                     rng.uniform(0.5, 40.0)});
  for (std::size_t e = 0; e < 3 * kRouters; ++e) {
    const auto a = rng.index(kRouters), b = rng.index(kRouters);
    if (a != b)
      edges.push_back({static_cast<double>(a), static_cast<double>(b),
                       rng.uniform(0.5, 40.0)});
  }

  const auto build = [&](netsim::Network& net,
                         std::vector<std::unique_ptr<netsim::Host>>& hosts) {
    for (std::size_t i = 0; i < kRouters; ++i) net.add_router("r");
    for (const auto& e : edges)
      net.add_link(static_cast<netsim::RouterId>(e[0]),
                   static_cast<netsim::RouterId>(e[1]), e[2]);
    for (std::size_t i = 0; i < kRouters; ++i) {
      hosts.push_back(std::make_unique<netsim::Host>("h"));
      net.attach_host(*hosts.back(), static_cast<netsim::RouterId>(i), 0.3);
    }
  };
  const auto all_pairs = [&](netsim::Network& net,
                             std::vector<std::unique_ptr<netsim::Host>>& hosts) {
    double acc = 0;
    for (auto& a : hosts)
      for (auto& b : hosts) acc += net.base_latency_ms(*a, *b).value_or(0);
    return acc;
  };

  util::SimClock ca, cb;
  netsim::Network cold(ca, util::Rng(3), 0.0), warm(cb, util::Rng(3), 0.0);
  std::vector<std::unique_ptr<netsim::Host>> cold_hosts, warm_hosts;
  build(cold, cold_hosts);
  build(warm, warm_hosts);
  warm.freeze_topology();

  auto t0 = Clock::now();
  const double cold_acc = all_pairs(cold, cold_hosts);
  const double dijkstra_ms = ms_since(t0);
  t0 = Clock::now();
  const double warm_acc = all_pairs(warm, warm_hosts);
  const double plane_ms = ms_since(t0);

  std::printf("all-pairs (%zu routers):  dijkstra %8.1f ms   plane %6.1f ms"
              "   identical=%s\n",
              kRouters, dijkstra_ms, plane_ms,
              cold_acc == warm_acc ? "yes" : "NO");
  bench::compare("all-pairs path resolution", "per-pair Dijkstra",
                 util::format("%.1f ms vs %.1f ms cold (%.1fx)", plane_ms,
                              dijkstra_ms, dijkstra_ms / plane_ms));
}

// --- 3. shard setup: cold vs shared plane -----------------------------------

void bench_shard_setup() {
  constexpr int kShards = 3;
  // Prime the process-wide plane outside the timed region (a campaign pays
  // this once, not per shard).
  const auto plane = ecosystem::shared_backbone_plane();

  auto t0 = Clock::now();
  for (int i = 0; i < kShards; ++i) {
    auto tb = ecosystem::build_provider_shard("NordVPN", 100 + i);
    if (!tb.world) return;
  }
  const double cold_ms = ms_since(t0) / kShards;
  t0 = Clock::now();
  for (int i = 0; i < kShards; ++i) {
    auto tb = ecosystem::build_provider_shard("NordVPN", 100 + i, plane);
    if (!tb.world) return;
  }
  const double shared_ms = ms_since(t0) / kShards;

  std::printf("shard setup:  cold %8.1f ms   shared-plane %8.1f ms\n", cold_ms,
              shared_ms);
  bench::compare("provider shard setup", "cold per-shard plane",
                 util::format("%.1f ms vs %.1f ms cold", shared_ms, cold_ms));
}

// --- 4. service lookup: flat sorted vector vs node-based map ----------------

struct EchoService final : netsim::Service {
  std::optional<std::string> handle(netsim::ServiceContext&) override {
    return "ok";
  }
};

void bench_service_lookup() {
  // A busy vantage point binds on the order of eight endpoints (OpenVPN
  // tcp/udp, IPsec, web, DNS, SOCKS...); the delivery path runs one lookup
  // per arriving packet.
  constexpr std::array<std::pair<netsim::Proto, std::uint16_t>, 8> kBindings =
      {{{netsim::Proto::kTcp, 443},
        {netsim::Proto::kUdp, 1194},
        {netsim::Proto::kTcp, 1194},
        {netsim::Proto::kUdp, 500},
        {netsim::Proto::kTcp, 80},
        {netsim::Proto::kUdp, 53},
        {netsim::Proto::kTcp, 1080},
        {netsim::Proto::kTcp, 8443}}};
  const auto service = std::make_shared<EchoService>();

  // Same storage shapes as Host::services_ pre/post PR8, both walked
  // inline so neither side pays a cross-TU call the other skips; the real
  // (non-inlined) accessor is timed alongside as a sanity point.
  struct FlatBinding {
    std::uint32_t key;
    std::shared_ptr<netsim::Service> service;
  };
  netsim::Host host("vp");
  std::vector<FlatBinding> flat;
  std::map<std::uint32_t, std::shared_ptr<netsim::Service>> legacy;
  for (const auto& [proto, port] : kBindings) {
    const std::uint32_t key = (static_cast<std::uint32_t>(proto) << 16) | port;
    host.bind_service(proto, port, service);
    flat.insert(std::lower_bound(flat.begin(), flat.end(), key,
                                 [](const FlatBinding& b, std::uint32_t k) {
                                   return b.key < k;
                                 }),
                FlatBinding{key, service});
    legacy.emplace(key, service);
  }

  // Hot case: one host, bindings resident in L1 (parity expected — both
  // containers fit in a couple of cache lines).
  constexpr int kRounds = 10;
  constexpr int kLookups = 100000;
  std::size_t sink = 0;
  double flat_ms = 1e18, map_ms = 1e18, api_ms = 1e18;
  for (int r = 0; r < kRounds; ++r) {
    auto t0 = Clock::now();
    for (int i = 0; i < kLookups; ++i) {
      const auto& [proto, port] = kBindings[i % kBindings.size()];
      const std::uint32_t key =
          (static_cast<std::uint32_t>(proto) << 16) | port;
      const auto it = std::lower_bound(
          flat.begin(), flat.end(), key,
          [](const FlatBinding& b, std::uint32_t k) { return b.key < k; });
      if (it != flat.end() && it->key == key) ++sink;
    }
    flat_ms = std::min(flat_ms, ms_since(t0));
    t0 = Clock::now();
    for (int i = 0; i < kLookups; ++i) {
      const auto& [proto, port] = kBindings[i % kBindings.size()];
      const auto it =
          legacy.find((static_cast<std::uint32_t>(proto) << 16) | port);
      if (it != legacy.end()) ++sink;
    }
    map_ms = std::min(map_ms, ms_since(t0));
    t0 = Clock::now();
    for (int i = 0; i < kLookups; ++i) {
      const auto& [proto, port] = kBindings[i % kBindings.size()];
      if (host.find_service(proto, port) != nullptr) ++sink;
    }
    api_ms = std::min(api_ms, ms_since(t0));
  }
  std::printf("service lookup hot (8 bindings):  flat %6.1f ns/op   map "
              "%6.1f ns/op   find_service %6.1f ns/op   (%zu)\n",
              1e6 * flat_ms / kLookups, 1e6 * map_ms / kLookups,
              1e6 * api_ms / kLookups, sink);

  // Cold case — what packet delivery actually does: every packet lands on
  // a different host, so per-lookup the container is out of cache. One
  // contiguous vector per host vs a node per binding is the PR8 change.
  constexpr std::size_t kHosts = 20000;
  std::vector<std::vector<FlatBinding>> flat_hosts(kHosts);
  std::vector<std::map<std::uint32_t, std::shared_ptr<netsim::Service>>>
      map_hosts(kHosts);
  for (std::size_t h = 0; h < kHosts; ++h) {
    for (const auto& [proto, port] : kBindings) {
      const std::uint32_t key =
          (static_cast<std::uint32_t>(proto) << 16) | port;
      flat_hosts[h].push_back(FlatBinding{key, service});
      map_hosts[h].emplace(key, service);
    }
    std::sort(flat_hosts[h].begin(), flat_hosts[h].end(),
              [](const FlatBinding& a, const FlatBinding& b) {
                return a.key < b.key;
              });
  }
  // Deterministically shuffled visit order defeats the prefetcher the way
  // interleaved shard traffic does.
  util::Rng order_rng(11);
  std::vector<std::uint32_t> visit(kHosts);
  for (std::size_t h = 0; h < kHosts; ++h)
    visit[h] = static_cast<std::uint32_t>(h);
  for (std::size_t h = kHosts; h > 1; --h)
    std::swap(visit[h - 1], visit[order_rng.index(h)]);

  double flat_cold_ms = 1e18, map_cold_ms = 1e18;
  for (int r = 0; r < kRounds; ++r) {
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < kHosts; ++i) {
      const auto& [proto, port] = kBindings[i % kBindings.size()];
      const std::uint32_t key =
          (static_cast<std::uint32_t>(proto) << 16) | port;
      const auto& bindings = flat_hosts[visit[i]];
      const auto it = std::lower_bound(
          bindings.begin(), bindings.end(), key,
          [](const FlatBinding& b, std::uint32_t k) { return b.key < k; });
      if (it != bindings.end() && it->key == key) ++sink;
    }
    flat_cold_ms = std::min(flat_cold_ms, ms_since(t0));
    t0 = Clock::now();
    for (std::size_t i = 0; i < kHosts; ++i) {
      const auto& [proto, port] = kBindings[i % kBindings.size()];
      const auto& bindings = map_hosts[visit[i]];
      const auto it =
          bindings.find((static_cast<std::uint32_t>(proto) << 16) | port);
      if (it != bindings.end()) ++sink;
    }
    map_cold_ms = std::min(map_cold_ms, ms_since(t0));
  }
  std::printf("service lookup cold (%zu hosts):  flat %6.1f ns/op   map "
              "%6.1f ns/op   (%zu)\n",
              kHosts, 1e6 * flat_cold_ms / kHosts, 1e6 * map_cold_ms / kHosts,
              sink);
  bench::compare("service lookup (cold, per-host)", "std::map pre-PR8",
                 util::format("%.1f ns/lookup, %.2fx vs map",
                              1e6 * flat_cold_ms / kHosts,
                              map_cold_ms / flat_cold_ms));
}

// --- 5. end-to-end transact throughput ---------------------------------------

void bench_transact_pps() {
  inet::World world(1234);
  auto& client = world.spawn_client("Chicago", "bench-vm");
  const auto dst = world.anchors()[10].addr;
  // Warm the path cache the way a campaign does, then measure steady state.
  // Best-of-rounds: on a shared/1-CPU box the scheduler inflates individual
  // rounds by 2-3x, so the minimum is the real per-packet cost.
  (void)world.network().ping(client, dst);
  constexpr int kRounds = 8;
  constexpr int kPackets = 50000;
  double best_ms = 1e18;
  for (int round = 0; round < kRounds; ++round) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kPackets; ++i) (void)world.network().ping(client, dst);
    best_ms = std::min(best_ms, ms_since(t0));
  }
  const double pps = kPackets / (best_ms / 1000.0);
  std::printf("transact:  %.0f packets/sec (%.0f ns/packet, best of %d)\n",
              pps, 1e6 * best_ms / kPackets, kRounds);
  bench::compare("transact throughput", "473.5 ns/packet @ PR2",
                 util::format("%.0f ns/packet, %.2fM pps",
                              1e6 * best_ms / kPackets, pps / 1e6));
}

}  // namespace

int main() {
  bench::print_header("routing-fastpath",
                      "LPM lookup, routing plane, shard setup, transact pps");
  bench_route_lookup(8, "route lookup (8 routes)");
  bench_route_lookup(64, "route lookup (64 routes)");
  bench_route_lookup(512, "route lookup (512 routes)");
  bench_route_lookup(4096, "route lookup (4096 routes)");
  bench_path_resolution();
  bench_shard_setup();
  bench_service_lookup();
  bench_transact_pps();
  return 0;
}
