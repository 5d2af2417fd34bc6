// Allocation budgets. Per exchange: the request path owns its payload bytes
// once, so one DNS lookup, one tunneled HTTP fetch and one tunneled TLS
// handshake each stay under a fixed number of heap allocations. Per shard
// build: hosts are attached without per-host hash tables, so one paper
// shard and one census shard stay under theirs. This binary links
// util/alloc_counter, which counts the calling thread's operator new calls;
// each budget sits about 10% above the measured count.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "dns/client.h"
#include "ecosystem/scale.h"
#include "ecosystem/testbed.h"
#include "http/client.h"
#include "tlssim/handshake.h"
#include "util/alloc_counter.h"
#include "vpn/client.h"
#include "vpn/deploy.h"

namespace vpna {
namespace {

// Allocations the calling thread makes while running `fn`.
template <typename Fn>
std::size_t allocations_in(Fn&& fn) {
  const std::size_t before = util::thread_allocations();
  fn();
  return util::thread_allocations() - before;
}

// The budgets sit about 10% above the owned-bytes request path's counts
// (13, 23 and 9). The vector-splitting codecs that copied payloads at every
// hop needed 37, 130 and 38.
constexpr std::size_t kDnsResolveBudget = 14;
constexpr std::size_t kTunneledFetchBudget = 25;
constexpr std::size_t kTunneledHandshakeBudget = 10;

// Shard builds: NordVPN's paper shard and the first provider's shard of a
// 1024-provider census catalog measure 4686 and 4734. With a route-prefix
// index per route table and host/address hash maps they needed 8211 and
// 8310.
constexpr std::size_t kProviderShardBudget = 5150;
constexpr std::size_t kScaledShardBudget = 5200;

constexpr std::string_view kSite = "daily-courier-news.com";
constexpr std::string_view kTlsSite = "tls-portal-5.com";

class AllocBudget : public ::testing::Test {
 protected:
  AllocBudget()
      : world_(511),
        direct_(world_.spawn_client("Chicago", "direct")),
        tunneled_(world_.spawn_client("Chicago", "vm")) {
    vpn::ProviderSpec spec;
    spec.name = "HonestVPN";
    spec.vantage_points = {{"no-1", "Oslo", "NO", "Oslo", "gigacloud-osl"}};
    provider_ = vpn::deploy_provider(world_, spec);
    client_ = std::make_unique<vpn::VpnClient>(world_.network(), tunneled_,
                                               provider_.spec);
    const auto res = client_->connect(provider_.vantage_points[0].addr);
    EXPECT_TRUE(res.connected) << res.error_message;
    const auto lookup = dns::resolve_system(world_.network(), tunneled_,
                                            kTlsSite, dns::RrType::kA);
    EXPECT_TRUE(lookup.ok());
    if (!lookup.addresses.empty()) tls_addr_ = lookup.addresses.front();
  }

  inet::World world_;
  netsim::Host& direct_;
  netsim::Host& tunneled_;
  vpn::DeployedProvider provider_;
  std::unique_ptr<vpn::VpnClient> client_;
  netsim::IpAddr tls_addr_;
};

TEST_F(AllocBudget, DirectDnsResolve) {
  const auto resolve = [&] {
    const auto res = dns::resolve_system(world_.network(), direct_, kSite,
                                         dns::RrType::kA);
    ASSERT_TRUE(res.ok());
    ASSERT_FALSE(res.addresses.empty());
  };
  resolve();  // warm-up: path caches, lazily built tables
  const auto n = allocations_in(resolve);
  std::printf("direct dns::resolve_system: %zu allocations\n", n);
  EXPECT_LE(n, kDnsResolveBudget);
}

TEST_F(AllocBudget, TunneledHttpFetch) {
  http::HttpClient browser(world_.network(), tunneled_);
  const std::string url = "http://" + std::string(kSite) + "/";
  const auto fetch = [&] {
    const auto res = browser.fetch(url);
    ASSERT_TRUE(res.ok());
    ASSERT_FALSE(res.body.empty());
  };
  fetch();
  const auto n = allocations_in(fetch);
  std::printf("tunneled HttpClient::fetch: %zu allocations\n", n);
  EXPECT_LE(n, kTunneledFetchBudget);
}

TEST_F(AllocBudget, TunneledTlsHandshake) {
  const auto handshake = [&] {
    const auto hs = tlssim::tls_handshake(world_.network(), tunneled_,
                                          tls_addr_, kTlsSite,
                                          world_.ca_store());
    ASSERT_TRUE(hs.completed());
    ASSERT_EQ(hs.validation, tlssim::ValidationStatus::kValid);
  };
  handshake();
  const auto n = allocations_in(handshake);
  std::printf("tunneled tls_handshake: %zu allocations\n", n);
  EXPECT_LE(n, kTunneledHandshakeBudget);
}

// One shard build, after a first build of the same shard has paid for
// everything built once per process (the world base, the routing plane).
template <typename Build>
std::size_t shard_build_allocations(Build&& build) {
  (void)build();
  ecosystem::Testbed tb;
  const auto n = allocations_in([&] { tb = build(); });
  EXPECT_NE(tb.world, nullptr);
  return n;
}

TEST_F(AllocBudget, ProviderShardBuild) {
  const auto n = shard_build_allocations([] {
    return ecosystem::build_provider_shard(
        "NordVPN", 20181031, ecosystem::shared_backbone_plane());
  });
  std::printf("build_provider_shard(NordVPN): %zu allocations\n", n);
  EXPECT_LE(n, kProviderShardBudget);
}

TEST_F(AllocBudget, ScaledShardBuild) {
  const auto catalog = ecosystem::generate_scaled_catalog(1024, 1000, 20181031);
  const std::string name = catalog.providers.front().spec.name;
  const auto n = shard_build_allocations([&] {
    return ecosystem::build_scaled_shard(catalog, name, 20181031,
                                         ecosystem::shared_backbone_plane());
  });
  std::printf("build_scaled_shard(%s): %zu allocations\n", name.c_str(), n);
  EXPECT_LE(n, kScaledShardBudget);
}

}  // namespace
}  // namespace vpna
