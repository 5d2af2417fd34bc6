// Performance benchmarks for the simulator's hot paths: routing lookups,
// end-to-end transactions, DNS resolution, page loads, tunnel traversal,
// anchor sweeps, and world/testbed construction. The request-path rows also
// report `allocs_per_iter`: heap allocations per iteration, counted by the
// replaced operator new this binary links (util/alloc_counter).
#include <benchmark/benchmark.h>

#include "core/infrastructure_tests.h"
#include "dns/client.h"
#include "ecosystem/testbed.h"
#include "http/client.h"
#include "tlssim/handshake.h"
#include "util/alloc_counter.h"
#include "vpn/client.h"

using namespace vpna;

namespace {

// Shared world for the per-operation benchmarks (construction measured
// separately).
struct PerfEnv {
  inet::World world{1234};
  netsim::Host& client;
  PerfEnv() : client(world.spawn_client("Chicago", "perf-vm")) {
    client.dns_servers().clear();
    client.dns_servers().push_back(world.google_dns());
  }
};

PerfEnv& env() {
  static PerfEnv e;
  return e;
}

// Counts the calling thread's allocations while the benchmark loop runs
// and reports them per iteration.
class AllocsPerIter {
 public:
  explicit AllocsPerIter(benchmark::State& state)
      : state_(state), before_(util::thread_allocations()) {}
  ~AllocsPerIter() {
    state_.counters["allocs_per_iter"] = benchmark::Counter(
        static_cast<double>(util::thread_allocations() - before_),
        benchmark::Counter::kAvgIterations);
  }

 private:
  benchmark::State& state_;
  std::size_t before_;
};

// A client in Chicago with an established tunnel to a Frankfurt vantage
// point, shared by the tunnel rows.
struct TunnelEnv {
  inet::World world{77};
  netsim::Host& vm;
  vpn::DeployedProvider provider;
  std::unique_ptr<vpn::VpnClient> client;
  TunnelEnv() : vm(world.spawn_client("Chicago", "tunnel-perf-vm")) {
    vpn::ProviderSpec spec;
    spec.name = "PerfVPN";
    spec.vantage_points = {
        {"de-1", "Frankfurt", "DE", "Frankfurt", "hosteu-fra"}};
    provider = vpn::deploy_provider(world, spec);
    client = std::make_unique<vpn::VpnClient>(world.network(), vm,
                                              provider.spec);
    (void)client->connect(provider.vantage_points[0].addr);
  }
};

TunnelEnv& tunnel_env() {
  static auto* e = new TunnelEnv;  // leaked: lives for the whole run
  return *e;
}

void BM_RouteLookup(benchmark::State& state) {
  auto& e = env();
  const auto dst = *netsim::IpAddr::parse("45.0.192.20");
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.client.routes().lookup(dst));
  }
}
BENCHMARK(BM_RouteLookup);

void BM_PingAcrossBackbone(benchmark::State& state) {
  auto& e = env();
  const auto dst = e.world.anchors()[10].addr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.world.network().ping(e.client, dst));
  }
}
BENCHMARK(BM_PingAcrossBackbone);

void BM_DnsResolution(benchmark::State& state) {
  auto& e = env();
  AllocsPerIter allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::resolve_system(
        e.world.network(), e.client, "daily-courier-news.com", dns::RrType::kA));
  }
}
BENCHMARK(BM_DnsResolution);

void BM_HttpFetch(benchmark::State& state) {
  auto& e = env();
  http::HttpClient c(e.world.network(), e.client);
  AllocsPerIter allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.fetch("http://daily-courier-news.com/"));
    e.client.capture().clear();
  }
}
BENCHMARK(BM_HttpFetch);

void BM_PageLoadWithResources(benchmark::State& state) {
  auto& e = env();
  http::HttpClient c(e.world.network(), e.client);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.load_page("http://daily-courier-news.com/"));
    e.client.capture().clear();
  }
}
BENCHMARK(BM_PageLoadWithResources);

void BM_AnchorSweep50(benchmark::State& state) {
  auto& e = env();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_ping_probe_test(e.world, e.client));
    e.client.capture().clear();
  }
}
BENCHMARK(BM_AnchorSweep50);

void BM_TunnelRoundTrip(benchmark::State& state) {
  // One fetch through an established tunnel (encapsulation both ways).
  auto& e = tunnel_env();
  http::HttpClient browser(e.world.network(), e.vm);
  AllocsPerIter allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(browser.fetch("http://daily-courier-news.com/"));
    e.vm.capture().clear();
  }
}
BENCHMARK(BM_TunnelRoundTrip);

void BM_TunnelTlsHandshake(benchmark::State& state) {
  // One TLS handshake through the same tunnel: ClientHello out, the
  // site's chain back, validated against the world's trust store.
  auto& e = tunnel_env();
  constexpr std::string_view kSite = "tls-portal-5.com";
  const auto lookup = dns::resolve_system(e.world.network(), e.vm, kSite,
                                          dns::RrType::kA);
  if (!lookup.ok() || lookup.addresses.empty()) {
    state.SkipWithError("tls-portal-5.com did not resolve");
    return;
  }
  AllocsPerIter allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlssim::tls_handshake(
        e.world.network(), e.vm, lookup.addresses.front(), kSite,
        e.world.ca_store(), e.world.chain_memo()));
    e.vm.capture().clear();
  }
}
BENCHMARK(BM_TunnelTlsHandshake);

void BM_WorldConstruction(benchmark::State& state) {
  for (auto _ : state) {
    inet::World world(static_cast<std::uint64_t>(state.iterations()));
    benchmark::DoNotOptimize(world.network().router_count());
  }
}
BENCHMARK(BM_WorldConstruction)->Unit(benchmark::kMillisecond);

void BM_FullTestbedConstruction(benchmark::State& state) {
  for (auto _ : state) {
    auto tb = ecosystem::build_testbed(
        static_cast<std::uint64_t>(state.iterations()) + 1);
    benchmark::DoNotOptimize(tb.total_vantage_points());
  }
}
BENCHMARK(BM_FullTestbedConstruction)->Unit(benchmark::kMillisecond);

void BM_SharedPlaneTestbedConstruction(benchmark::State& state) {
  // Same as BM_FullTestbedConstruction but adopting the process-wide
  // routing plane, the way campaign shards build their worlds.
  const auto plane = ecosystem::shared_backbone_plane();
  for (auto _ : state) {
    auto tb = ecosystem::build_testbed(
        static_cast<std::uint64_t>(state.iterations()) + 1, plane);
    benchmark::DoNotOptimize(tb.total_vantage_points());
  }
}
BENCHMARK(BM_SharedPlaneTestbedConstruction)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
