// Egress-behaviour tests: transparent proxying, content injection, DNS
// manipulation and TLS interception as seen from a tunnelled client.
#include <gtest/gtest.h>

#include "dns/client.h"
#include "http/client.h"
#include "tlssim/handshake.h"
#include "vpn/client.h"
#include "vpn/deploy.h"

namespace vpna::vpn {
namespace {

ProviderSpec spec_named(std::string name) {
  ProviderSpec spec;
  spec.name = std::move(name);
  spec.vantage_points = {{"nl-1", "Amsterdam", "NL", "Amsterdam", "hosteu-ams"}};
  return spec;
}

class EgressFixture : public ::testing::Test {
 protected:
  EgressFixture() : world_(727), client_host_(world_.spawn_client("Chicago", "vm")) {}

  std::unique_ptr<VpnClient> connect(const ProviderSpec& spec,
                                     DeployedProvider& out) {
    out = deploy_provider(world_, spec);
    auto vc = std::make_unique<VpnClient>(world_.network(), client_host_, spec);
    const auto res = vc->connect(out.vantage_points[0].addr);
    EXPECT_TRUE(res.connected) << res.error_message;
    return vc;
  }

  inet::World world_;
  netsim::Host& client_host_;
};

TEST(ProxyRegenerate, NormalizesHeadersWithoutChangingSemantics) {
  http::HttpRequest req;
  req.host = "example.com";
  req.headers = {{"x-probe-marker", "v"}, {"ACCEPT", "text/html"}};
  const auto regenerated = proxy_regenerate(req.encode());
  EXPECT_NE(regenerated, req.encode());
  const auto decoded = http::HttpRequest::decode(regenerated);
  ASSERT_TRUE(decoded.has_value());
  // Same headers semantically (case-insensitive lookup still works)...
  EXPECT_EQ(decoded->header("accept"), "text/html");
  EXPECT_EQ(decoded->header("x-probe-marker"), "v");
  // ...but regenerated casing differs.
  EXPECT_EQ(decoded->headers[0].first, "Accept");
  EXPECT_EQ(decoded->headers[1].first, "X-Probe-Marker");
}

TEST(ProxyRegenerate, PassesNonHttpThrough) {
  EXPECT_EQ(proxy_regenerate("not http"), "not http");
}

TEST(ProxyRegenerate, Idempotent) {
  http::HttpRequest req;
  req.host = "example.com";
  req.headers = {{"b-header", "x"}, {"a-header", "y"}};
  const auto once = proxy_regenerate(req.encode());
  EXPECT_EQ(proxy_regenerate(once), once);
}

TEST(InjectAdScript, InjectsIntoHtml200Only) {
  http::HttpResponse ok;
  ok.status = 200;
  ok.set_header("Content-Type", "text/html");
  ok.body = "<html><body>content</body></html>";
  const auto injected = inject_ad_script(ok.encode(), "Seed4Me");
  EXPECT_NE(injected, ok.encode());
  EXPECT_NE(injected.find("vpn-upsell"), std::string::npos);
  EXPECT_NE(injected.find("upgrade.seed4me"), std::string::npos);

  http::HttpResponse js;
  js.status = 200;
  js.set_header("Content-Type", "application/javascript");
  js.body = "// code";
  EXPECT_EQ(inject_ad_script(js.encode(), "Seed4Me"), js.encode());

  http::HttpResponse redirect;
  redirect.status = 302;
  redirect.set_header("Content-Type", "text/html");
  redirect.body = "<html><body>x</body></html>";
  EXPECT_EQ(inject_ad_script(redirect.encode(), "Seed4Me"), redirect.encode());
}

TEST_F(EgressFixture, CleanProviderPreservesRequestBytes) {
  auto spec = spec_named("CleanVPN");
  DeployedProvider deployed;
  auto vc = connect(spec, deployed);
  http::HttpClient c(world_.network(), client_host_);
  const auto res =
      c.fetch("http://" + std::string(inet::header_echo_host()) + "/");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.body, http::encode_fetch_request(res.exchanges[0].url, {}));
}

TEST_F(EgressFixture, TransparentProxyAltersHeaderBytes) {
  auto spec = spec_named("ProxyVPN");
  spec.behavior.transparent_proxy = true;
  DeployedProvider deployed;
  auto vc = connect(spec, deployed);
  http::HttpClient c(world_.network(), client_host_);
  const auto res =
      c.fetch("http://" + std::string(inet::header_echo_host()) + "/");
  ASSERT_TRUE(res.ok());
  const std::string sent_bytes =
      http::encode_fetch_request(res.exchanges[0].url, {});
  EXPECT_NE(res.body, sent_bytes);
  // No headers added or removed — only regenerated.
  const auto sent = http::HttpRequest::decode(sent_bytes);
  const auto seen = http::HttpRequest::decode(res.body);
  ASSERT_TRUE(sent && seen);
  EXPECT_EQ(sent->headers.size(), seen->headers.size());
}

TEST_F(EgressFixture, InjectingProviderModifiesHoneysiteDom) {
  auto spec = spec_named("Seed4Me");
  spec.subscription = SubscriptionType::kTrial;
  spec.behavior.injects_content = true;
  DeployedProvider deployed;
  auto vc = connect(spec, deployed);
  http::HttpClient c(world_.network(), client_host_);
  const auto load =
      c.load_page("http://" + std::string(inet::honeysite_plain()) + "/");
  ASSERT_TRUE(load.document.ok());
  const auto* truth = world_.page_for(inet::honeysite_plain());
  ASSERT_NE(truth, nullptr);
  EXPECT_NE(load.dom(), truth->html);
  EXPECT_NE(load.dom().find("vpn-upsell"), std::string::npos);
  // The injected script URL gets requested by the page loader, exactly as
  // a real browser would fetch injected content.
  bool injected_url_requested = false;
  for (const auto& url : load.requested_urls)
    if (url.find("upgrade.seed4me") != std::string::npos)
      injected_url_requested = true;
  EXPECT_TRUE(injected_url_requested);
}

TEST_F(EgressFixture, CleanProviderLeavesHoneysiteAlone) {
  auto spec = spec_named("CleanVPN");
  DeployedProvider deployed;
  auto vc = connect(spec, deployed);
  http::HttpClient c(world_.network(), client_host_);
  const auto res =
      c.fetch("http://" + std::string(inet::honeysite_plain()) + "/");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.body, world_.page_for(inet::honeysite_plain())->html);
}

TEST_F(EgressFixture, DnsManipulatorForgesSelectedNames) {
  auto spec = spec_named("HijackVPN");
  spec.behavior.manipulates_dns = true;
  DeployedProvider deployed;
  auto vc = connect(spec, deployed);

  // The targeted name resolves to the partner host through the VPN DNS...
  const auto forged = dns::resolve_system(world_.network(), client_host_,
                                          "bargain-basket.com", dns::RrType::kA);
  ASSERT_TRUE(forged.ok());
  EXPECT_EQ(forged.addresses[0].str(), "203.0.113.66");

  // ...while Google Public DNS queried through the same tunnel answers
  // honestly — the cross-check the DNS-manipulation test performs.
  const auto honest = dns::query(world_.network(), client_host_,
                                 world_.google_dns(), "bargain-basket.com",
                                 dns::RrType::kA);
  ASSERT_TRUE(honest.ok());
  EXPECT_NE(honest.addresses[0].str(), "203.0.113.66");

  // Untargeted names are untouched.
  const auto other = dns::resolve_system(world_.network(), client_host_,
                                         "daily-courier-news.com", dns::RrType::kA);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other.addresses[0], honest.addresses.empty()
                                    ? other.addresses[0]
                                    : other.addresses[0]);
}

TEST_F(EgressFixture, TlsInterceptorPresentsUntrustedChain) {
  auto spec = spec_named("MitmVPN");
  spec.behavior.intercepts_tls = true;
  DeployedProvider deployed;
  auto vc = connect(spec, deployed);

  const auto lookup = dns::resolve_system(world_.network(), client_host_,
                                          "tls-portal-5.com", dns::RrType::kA);
  ASSERT_TRUE(lookup.ok());
  const auto hs =
      tlssim::tls_handshake(world_.network(), client_host_,
                            lookup.addresses[0], "tls-portal-5.com",
                            world_.ca_store(), world_.chain_memo());
  ASSERT_TRUE(hs.completed());
  EXPECT_EQ(hs.validation, tlssim::ValidationStatus::kUntrustedRoot);
  EXPECT_NE(hs.chain->root()->issuer.find("MitmVPN"), std::string::npos);
  // Fingerprint differs from the site's genuine certificate.
  EXPECT_NE(hs.chain->leaf()->key_fingerprint,
            *world_.true_cert_fingerprint("tls-portal-5.com"));
}

TEST_F(EgressFixture, HonestProviderPassesTlsUntouched) {
  auto spec = spec_named("CleanVPN");
  DeployedProvider deployed;
  auto vc = connect(spec, deployed);
  const auto lookup = dns::resolve_system(world_.network(), client_host_,
                                          "tls-portal-5.com", dns::RrType::kA);
  ASSERT_TRUE(lookup.ok());
  const auto hs =
      tlssim::tls_handshake(world_.network(), client_host_,
                            lookup.addresses[0], "tls-portal-5.com",
                            world_.ca_store(), world_.chain_memo());
  ASSERT_TRUE(hs.completed());
  EXPECT_EQ(hs.validation, tlssim::ValidationStatus::kValid);
  EXPECT_EQ(hs.chain->leaf()->key_fingerprint,
            *world_.true_cert_fingerprint("tls-portal-5.com"));
}

}  // namespace
}  // namespace vpna::vpn
