// HttpClient option handling and URL resolution details not covered by the
// end-to-end fixture.
#include <gtest/gtest.h>

#include "dns/server.h"
#include "http/client.h"
#include "http/server.h"
#include "tlssim/handshake.h"

namespace vpna::http {
namespace {

class OptionsFixture : public ::testing::Test {
 protected:
  OptionsFixture()
      : net_(clock_, util::Rng(21), 0.0),
        client_("client"),
        web_("web"),
        zones_(std::make_shared<dns::ZoneRegistry>()) {
    const auto r0 = net_.add_router("r0");
    const auto r1 = net_.add_router("r1");
    net_.add_link(r0, r1, 4.0);
    auto setup = [&](netsim::Host& h, netsim::IpAddr addr, netsim::RouterId r) {
      h.add_interface("eth0", addr, std::nullopt);
      h.routes().add(netsim::Route{*netsim::Cidr::parse("0.0.0.0/0"), "eth0",
                                   std::nullopt, 0});
      net_.attach_host(h, r, 0.5);
    };
    setup(client_, netsim::IpAddr::v4(71, 80, 0, 10), r0);
    setup(web_, netsim::IpAddr::v4(45, 0, 0, 80), r1);

    auto authority = std::make_shared<dns::AuthoritativeService>();
    dns::ZoneRecord rec;
    rec.a = {netsim::IpAddr::v4(45, 0, 0, 80)};
    authority->add_record("site.com", rec);
    zones_->set_authority("site.com", netsim::IpAddr::v4(45, 0, 0, 80));
    web_.bind_service(netsim::Proto::kUdp, netsim::kPortDns, authority);

    // The resolver is the web host itself in this tiny world.
    client_.dns_servers().push_back(netsim::IpAddr::v4(45, 0, 0, 80));
    auto resolver = std::make_shared<dns::RecursiveResolverService>(zones_);
    // (direct authoritative answers suffice; the stub accepts them)

    auto site = std::make_shared<Site>();
    site->hostname = "site.com";
    site->pages["/"] = make_basic_page("site.com", "Site", 0);
    auto web80 = std::make_shared<WebServerService>(site);
    // Keeps each request's bytes as the server received them.
    web_.bind_service(
        netsim::Proto::kTcp, netsim::kPortHttp,
        std::make_shared<netsim::LambdaService>(
            [this, web80](netsim::ServiceContext& ctx) {
              received_.push_back(ctx.request.payload);
              return web80->handle(ctx);
            }));
  }

  util::SimClock clock_;
  netsim::Network net_;
  netsim::Host client_;
  netsim::Host web_;
  std::shared_ptr<dns::ZoneRegistry> zones_;
  std::vector<std::string> received_;  // HTTP requests at web_, in order
};

TEST_F(OptionsFixture, CustomHeadersSentVerbatim) {
  HttpClient c(net_, client_);
  FetchOptions opts;
  opts.headers = {{"X-Custom", "exact value"}};
  const auto res = c.fetch("http://site.com/", opts);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0], encode_fetch_request(res.exchanges[0].url, opts));
  const auto sent = HttpRequest::decode(received_[0]);
  ASSERT_TRUE(sent.has_value());
  ASSERT_EQ(sent->headers.size(), 1u);
  EXPECT_EQ(sent->headers[0].first, "X-Custom");
  EXPECT_EQ(sent->headers[0].second, "exact value");
}

TEST_F(OptionsFixture, DefaultHeadersAppliedWhenNoneGiven) {
  HttpClient c(net_, client_);
  const auto res = c.fetch("http://site.com/");
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0], encode_fetch_request(res.exchanges[0].url, {}));
  const auto sent = HttpRequest::decode(received_[0]);
  ASSERT_TRUE(sent.has_value());
  EXPECT_TRUE(sent->header("User-Agent").has_value());
  EXPECT_TRUE(sent->header("X-Probe-Marker").has_value());
}

TEST_F(OptionsFixture, MalformedUrlRejected) {
  HttpClient c(net_, client_);
  const auto res = c.fetch("not a url");
  EXPECT_EQ(res.error.kind, transport::ErrorKind::kParse);
  EXPECT_EQ(res.error.status, netsim::TransactStatus::kOk);  // never sent
}

TEST_F(OptionsFixture, IpLiteralSkipsDns) {
  HttpClient c(net_, client_);
  client_.dns_servers().clear();  // DNS entirely broken
  const auto res = c.fetch("http://45.0.0.80/");
  // The server answers 404 for the unknown Host header, but the exchange
  // itself succeeds without any resolver.
  EXPECT_EQ(res.status, 404);
  EXPECT_TRUE(res.error.ok());
}

TEST_F(OptionsFixture, HttpsCostsMoreRoundTripsThanHttp) {
  // Wire an https terminator for the same site.
  auto site = std::make_shared<Site>();
  site->hostname = "site.com";
  site->pages["/"] = make_basic_page("site.com", "Site", 0);
  auto term = std::make_shared<vpna::tlssim::TlsTerminator>(
      std::make_shared<const vpna::tlssim::CertChain>(
          vpna::tlssim::issue_chain("site.com", "SimTrust Root CA", 1)),
      std::make_shared<WebServerService>(site));
  web_.bind_service(netsim::Proto::kTcp, netsim::kPortHttps, term);

  HttpClient c(net_, client_);
  const auto plain = c.fetch("http://site.com/");
  const auto secure = c.fetch("https://site.com/");
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(secure.ok());
  EXPECT_GT(secure.exchanges[0].rtt_ms, plain.exchanges[0].rtt_ms * 1.5);
}

}  // namespace
}  // namespace vpna::http
