// Allocation budget per exchange: the request path owns its payload bytes
// once, so one DNS lookup, one tunneled HTTP fetch and one tunneled TLS
// handshake each stay under a fixed number of heap allocations. This binary
// links util/alloc_counter, which counts the calling thread's operator new
// calls; each budget sits about 10% above the measured count.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "dns/client.h"
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

}  // namespace
}  // namespace vpna
