// Internet-scale ecosystem fast path: builds the 1024-provider scaled shard
// set and reports ns/host, bytes/host and peak RSS, plus an A/B of the
// pre-refactor host storage (per-host heap allocation + node-based service
// map) against the arena + flat-sorted-vector path.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/parallel_campaign.h"
#include "ecosystem/scale.h"
#include "netsim/host.h"
#include "netsim/network.h"
#include "util/arena.h"
#include "util/clock.h"
#include "util/rng.h"
#include "util/strings.h"

using namespace vpna;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::size_t kProviders = 1024;
constexpr std::uint32_t kSubscribers = 1000;
constexpr std::uint64_t kSeed = 20181031;
constexpr std::size_t kJobs = 4;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// --- 1. scaled census: ns/host and bytes/host -------------------------------

std::size_t total_hosts(const core::ScaledCampaignReport& report) {
  std::size_t hosts = 0;
  for (const auto& shard : report.shards) hosts += shard.hosts;
  return hosts;
}

void bench_scaled_census() {
  const auto t_gen = Clock::now();
  const auto catalog =
      ecosystem::generate_scaled_catalog(kProviders, kSubscribers, kSeed);
  const double gen_ms = ms_since(t_gen);

  core::ScaledCampaignOptions options;
  options.seed = kSeed;
  options.jobs = kJobs;
  const auto report = core::run_scaled_campaign(catalog, options);
  const std::size_t hosts = total_hosts(report);
  if (hosts == 0) return;

  const double ns_per_host = report.wall_s * 1e9 / static_cast<double>(hosts);
  const double used_per_host =
      static_cast<double>(report.arena_used_bytes) / static_cast<double>(hosts);
  const double reserved_per_host =
      static_cast<double>(report.arena_reserved_bytes) /
      static_cast<double>(hosts);
  bench::record_bytes_allocated(report.arena_reserved_bytes);

  std::printf("catalog generation:  %zu providers, %zu vantage points in "
              "%.1f ms\n",
              catalog.providers.size(), catalog.total_vantage_points(), gen_ms);
  std::printf("shard set:  %zu shards, %zu hosts, %.2f s wall (jobs %zu)\n",
              report.shards.size(), hosts, report.wall_s, kJobs);
  std::printf("arena:  %.1f MiB used / %.1f MiB reserved across shards\n",
              report.arena_used_bytes / (1024.0 * 1024.0),
              report.arena_reserved_bytes / (1024.0 * 1024.0));
  std::printf("peak RSS:  %.1f MiB (at most %zu shard worlds resident)\n",
              report.peak_rss_kb / 1024.0, kJobs);
  bench::compare("scaled shard build (1024 providers)",
                 "62-provider campaign shards",
                 util::format("%.0f ns/host over %zu hosts", ns_per_host,
                              hosts));
  bench::compare("arena bytes/host", "one heap node per host pre-refactor",
                 util::format("%.0f used, %.0f reserved", used_per_host,
                              reserved_per_host));
  bench::compare("catalog fingerprint", "deterministic in (n, subs, seed)",
                 util::format("%016llx",
                              static_cast<unsigned long long>(
                                  report.catalog_fingerprint)));
}

// --- 2. shard-build storage A/B: pre-refactor emulation vs this PR ----------

// The storage shape this PR replaced, exercised end to end the way a shard
// build does: every host an individual heap allocation
// (vector<unique_ptr<Host>>), service bindings in a node-based map keyed by
// (proto, port), and the network's host/address indexes growing
// incrementally with no reserve(). The emulation constructs the very same
// netsim::Host, interface and attach sequence on both sides, so the only
// differences are the refactored axes: allocation strategy, service-binding
// container, and index pre-sizing. Build + teardown only — the lookup hot
// path has its own micro-section in bench_routing.
struct NopService final : netsim::Service {
  std::optional<std::string> handle(netsim::ServiceContext&) override {
    return std::nullopt;
  }
};

constexpr std::size_t kStorageHosts = 50000;
constexpr std::size_t kStorageRouters = 128;  // a shard-world-sized core
// A vantage point binds one endpoint per supported protocol; six is the
// evaluated catalog's busy end (OpenVPN tcp+udp, IPsec, PPTP, L2TP, web).
constexpr std::array<std::pair<netsim::Proto, std::uint16_t>, 6> kBindings = {
    {{netsim::Proto::kTcp, 443},
     {netsim::Proto::kUdp, 1194},
     {netsim::Proto::kTcp, 1194},
     {netsim::Proto::kUdp, 500},
     {netsim::Proto::kUdp, 1701},
     {netsim::Proto::kTcp, 80}}};

netsim::IpAddr storage_addr(std::size_t i) {
  return netsim::IpAddr::v4(0x0a000000u | static_cast<std::uint32_t>(i));
}

double bench_storage_legacy(std::size_t n_hosts) {
  const auto service = std::make_shared<NopService>();
  const auto t0 = Clock::now();
  {
    util::SimClock clock;
    netsim::Network net(clock, util::Rng(7), 0.0);
    for (std::size_t r = 0; r < kStorageRouters; ++r) net.add_router("r");
    // Pre-refactor: per-host heap nodes, node-based service maps, and the
    // address index rehashing as it grows.
    std::vector<std::unique_ptr<netsim::Host>> hosts;
    std::vector<std::map<std::uint32_t, std::shared_ptr<netsim::Service>>>
        services(n_hosts);
    for (std::size_t i = 0; i < n_hosts; ++i) {
      hosts.push_back(std::make_unique<netsim::Host>("vp"));
      auto& host = *hosts.back();
      host.add_interface("eth0", storage_addr(i));
      net.attach_host(host, static_cast<netsim::RouterId>(i % kStorageRouters),
                      0.3);
      auto& map = services[i];
      for (const auto& [proto, port] : kBindings)
        map.emplace((static_cast<std::uint32_t>(proto) << 16) | port, service);
    }
  }
  return ms_since(t0);
}

double bench_storage_arena(std::size_t n_hosts) {
  const auto service = std::make_shared<NopService>();
  const auto t0 = Clock::now();
  {
    util::SimClock clock;
    netsim::Network net(clock, util::Rng(7), 0.0);
    for (std::size_t r = 0; r < kStorageRouters; ++r) net.add_router("r");
    // This PR: indexes pre-sized, hosts bump-allocated, bindings flat.
    net.reserve_hosts(n_hosts);
    util::Arena arena;
    arena.reserve(n_hosts * sizeof(netsim::Host));
    for (std::size_t i = 0; i < n_hosts; ++i) {
      auto* host = arena.create<netsim::Host>("vp");
      host->add_interface("eth0", storage_addr(i));
      net.attach_host(*host, static_cast<netsim::RouterId>(i % kStorageRouters),
                      0.3);
      for (const auto& [proto, port] : kBindings)
        host->bind_service(proto, port, service);
    }
    arena.reset();
  }
  return ms_since(t0);
}

void bench_host_storage() {
  // Best-of-rounds, alternating sides so neither benefits from a warmer heap.
  constexpr int kRounds = 5;
  double legacy_ms = 1e18, arena_ms = 1e18;
  for (int r = 0; r < kRounds; ++r) {
    legacy_ms = std::min(legacy_ms, bench_storage_legacy(kStorageHosts));
    arena_ms = std::min(arena_ms, bench_storage_arena(kStorageHosts));
  }
  const double per_host_legacy = 1e6 * legacy_ms / kStorageHosts;
  const double per_host_arena = 1e6 * arena_ms / kStorageHosts;
  std::printf("shard-build storage (%zu hosts, %zu binds each):  "
              "legacy %8.1f ms   arena+flat %8.1f ms\n",
              kStorageHosts, kBindings.size(), legacy_ms, arena_ms);
  bench::compare("shard-build host storage",
                 "heap unique_ptr + std::map services, no reserve",
                 util::format("%.0f ns/host vs %.0f ns/host legacy (%.2fx)",
                              per_host_arena, per_host_legacy,
                              legacy_ms / arena_ms));
}

}  // namespace

int main() {
  bench::print_header(
      "ecosystem-scale",
      "1024-provider shard set: ns/host, bytes/host, RSS, storage A/B");
  bench_scaled_census();
  bench_host_storage();
  return 0;
}
