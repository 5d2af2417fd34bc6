// Allocation budgets. Per exchange: the request path owns its payload bytes
// once and reads replies in place, so one DNS lookup (direct, and through a
// provider's in-tunnel resolver), one tunneled HTTP fetch and one tunneled
// TLS handshake (a chain-memo hit, and an intercepted one that always
// misses) each stay under a fixed number of heap allocations. Per shard
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
#include "vpn/server.h"

namespace vpna {
namespace {

// Allocations the calling thread makes while running `fn`.
template <typename Fn>
std::size_t allocations_in(Fn&& fn) {
  const std::size_t before = util::thread_allocations();
  fn();
  return util::thread_allocations() - before;
}

// The budgets sit about 10% above the in-place request path's counts: 8
// for a direct lookup, 7 through the provider's in-tunnel resolver, 6 per
// tunneled fetch and 2 per tunneled handshake that hits the world's chain
// memo. Decoding every reply into owned fields and every certificate chain
// afresh needed 13, 12, 12 and 9; the vector-splitting codecs that copied
// payloads at every hop needed 37, -, 130 and 38.
constexpr std::size_t kDnsResolveBudget = 9;
constexpr std::size_t kGatewayDnsResolveBudget = 8;
constexpr std::size_t kTunneledFetchBudget = 7;
constexpr std::size_t kTunneledHandshakeBudget = 3;
// An intercepting provider re-issues the chain on every handshake, so each
// one misses the chain memo: 20 allocations, where the fresh decode every
// handshake paid before the memo made it 29. The budget pins that a miss
// never costs more than that decode did.
constexpr std::size_t kInterceptedHandshakeBudget = 22;

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
        tunneled_(world_.spawn_client("Chicago", "vm")),
        intercepted_(world_.spawn_client("Chicago", "mitm-vm")) {
    vpn::ProviderSpec spec;
    spec.name = "HonestVPN";
    spec.vantage_points = {{"no-1", "Oslo", "NO", "Oslo", "gigacloud-osl"}};
    provider_ = vpn::deploy_provider(world_, spec);
    client_ = std::make_unique<vpn::VpnClient>(world_.network(), tunneled_,
                                               provider_.spec);
    const auto res = client_->connect(provider_.vantage_points[0].addr);
    EXPECT_TRUE(res.connected) << res.error_message;

    vpn::ProviderSpec mitm;
    mitm.name = "MitmVPN";
    mitm.behavior.intercepts_tls = true;
    mitm.vantage_points = {{"no-2", "Oslo", "NO", "Oslo", "gigacloud-osl"}};
    mitm_provider_ = vpn::deploy_provider(world_, mitm);
    mitm_client_ = std::make_unique<vpn::VpnClient>(
        world_.network(), intercepted_, mitm_provider_.spec);
    const auto mitm_res =
        mitm_client_->connect(mitm_provider_.vantage_points[0].addr);
    EXPECT_TRUE(mitm_res.connected) << mitm_res.error_message;

    const auto lookup = dns::resolve_system(world_.network(), tunneled_,
                                            kTlsSite, dns::RrType::kA);
    EXPECT_TRUE(lookup.ok());
    if (!lookup.addresses.empty()) tls_addr_ = lookup.addresses.front();
  }

  inet::World world_;
  netsim::Host& direct_;
  netsim::Host& tunneled_;
  netsim::Host& intercepted_;
  vpn::DeployedProvider provider_;
  std::unique_ptr<vpn::VpnClient> client_;
  vpn::DeployedProvider mitm_provider_;
  std::unique_ptr<vpn::VpnClient> mitm_client_;
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

TEST_F(AllocBudget, TunneledGatewayDnsResolve) {
  // The tunneled host resolves through the provider's in-tunnel resolver,
  // so the lookup includes the server-side query decode and the recursion.
  ASSERT_EQ(tunneled_.dns_servers().size(), 1u);
  ASSERT_EQ(tunneled_.dns_servers().front(), vpn::tunnel_gateway_addr());
  const auto resolve = [&] {
    const auto res = dns::resolve_system(world_.network(), tunneled_, kSite,
                                         dns::RrType::kA);
    ASSERT_TRUE(res.ok());
    ASSERT_FALSE(res.addresses.empty());
  };
  resolve();
  const auto n = allocations_in(resolve);
  std::printf("tunneled gateway dns::resolve_system: %zu allocations\n", n);
  EXPECT_LE(n, kGatewayDnsResolveBudget);
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
                                          world_.ca_store(),
                                          world_.chain_memo());
    ASSERT_TRUE(hs.completed());
    ASSERT_EQ(hs.validation, tlssim::ValidationStatus::kValid);
  };
  handshake();  // warm-up: the chain's one decode
  const auto n = allocations_in(handshake);
  std::printf("tunneled tls_handshake: %zu allocations\n", n);
  EXPECT_LE(n, kTunneledHandshakeBudget);
}

TEST_F(AllocBudget, InterceptedTlsHandshake) {
  const auto handshake = [&] {
    const auto hs = tlssim::tls_handshake(world_.network(), intercepted_,
                                          tls_addr_, kTlsSite,
                                          world_.ca_store(),
                                          world_.chain_memo());
    ASSERT_TRUE(hs.completed());
    ASSERT_EQ(hs.validation, tlssim::ValidationStatus::kUntrustedRoot);
  };
  handshake();
  const std::size_t chains = world_.chain_memo().size();
  const auto n = allocations_in(handshake);
  EXPECT_EQ(world_.chain_memo().size(), chains + 1);  // a miss
  std::printf("intercepted tls_handshake: %zu allocations\n", n);
  EXPECT_LE(n, kInterceptedHandshakeBudget);
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
