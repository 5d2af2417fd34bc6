#include <gtest/gtest.h>

#include "dns/server.h"
#include "http/client.h"
#include "http/server.h"

namespace vpna::http {
namespace {

// End-to-end HTTP fixture: a client with working DNS and two web servers
// (one http-only site, one https-upgrading site, one VPN-blocking site).
class HttpFixture : public ::testing::Test {
 protected:
  HttpFixture()
      : net_(clock_, util::Rng(3), 0.0),
        client_("client"),
        resolver_host_("resolver"),
        web_host_("web"),
        zones_(std::make_shared<dns::ZoneRegistry>()) {
    const auto r0 = net_.add_router("r0");
    const auto r1 = net_.add_router("r1");
    net_.add_link(r0, r1, 8.0);

    auto setup = [&](netsim::Host& h, netsim::IpAddr addr, netsim::RouterId r) {
      h.add_interface("eth0", addr, std::nullopt);
      h.routes().add(netsim::Route{*netsim::Cidr::parse("0.0.0.0/0"), "eth0",
                                   std::nullopt, 0});
      net_.attach_host(h, r, 0.5);
    };
    setup(client_, netsim::IpAddr::v4(71, 80, 0, 10), r0);
    setup(resolver_host_, netsim::IpAddr::v4(8, 8, 8, 8), r1);
    setup(web_host_, netsim::IpAddr::v4(45, 0, 0, 80), r1);

    // DNS plumbing: one authoritative server co-hosted with the web server.
    auto authority = std::make_shared<dns::AuthoritativeService>();
    for (const char* name : {"plain.com", "secure.com", "stream.com"}) {
      dns::ZoneRecord rec;
      rec.a = {netsim::IpAddr::v4(45, 0, 0, 80)};
      authority->add_record(name, rec);
      zones_->set_authority(name, netsim::IpAddr::v4(45, 0, 0, 80));
    }
    web_host_.bind_service(netsim::Proto::kUdp, netsim::kPortDns, authority);
    resolver_host_.bind_service(
        netsim::Proto::kUdp, netsim::kPortDns,
        std::make_shared<dns::RecursiveResolverService>(zones_));
    client_.dns_servers().push_back(netsim::IpAddr::v4(8, 8, 8, 8));

    // Sites.
    auto plain = std::make_shared<Site>();
    plain->hostname = "plain.com";
    plain->https_available = false;
    plain->pages["/"] = make_basic_page("plain.com", "Plain", 2);
    plain->pages["/static/res0.js"] = Page{"// r0", {}};
    plain->pages["/static/res1.js"] = Page{"// r1", {}};

    auto secure = std::make_shared<Site>();
    secure->hostname = "secure.com";
    secure->upgrades_to_https = true;
    secure->pages["/"] = make_basic_page("secure.com", "Secure", 0);

    auto stream = std::make_shared<Site>();
    stream->hostname = "stream.com";
    stream->https_available = false;
    stream->blocked_ranges = {*netsim::Cidr::parse("45.0.32.0/19")};
    stream->pages["/"] = make_basic_page("stream.com", "Stream", 0);

    auto web80 = std::make_shared<WebServerService>(false);
    web80->add_site(plain);
    web80->add_site(secure);
    web80->add_site(stream);
    // Keeps each request's bytes as the server received them.
    web_host_.bind_service(
        netsim::Proto::kTcp, netsim::kPortHttp,
        std::make_shared<netsim::LambdaService>(
            [this, web80](netsim::ServiceContext& ctx) {
              received_.push_back(ctx.request.payload);
              return web80->handle(ctx);
            }));

    auto web443 = std::make_shared<WebServerService>(true);
    web443->add_site(secure);
    web_host_.bind_service(netsim::Proto::kTcp, netsim::kPortHttps, web443);
  }

  util::SimClock clock_;
  netsim::Network net_;
  netsim::Host client_;
  netsim::Host resolver_host_;
  netsim::Host web_host_;
  std::shared_ptr<dns::ZoneRegistry> zones_;
  std::vector<std::string> received_;  // HTTP requests at port 80, in order
};

TEST_F(HttpFixture, FetchPlainSite) {
  HttpClient c(net_, client_);
  const auto res = c.fetch("http://plain.com/");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.status, 200);
  EXPECT_NE(res.body.find("Plain"), std::string::npos);
  EXPECT_EQ(res.exchanges.size(), 1u);
}

TEST_F(HttpFixture, FetchFollowsHttpsUpgrade) {
  HttpClient c(net_, client_);
  const auto res = c.fetch("http://secure.com/");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.final_url.scheme, "https");
  ASSERT_EQ(res.exchanges.size(), 2u);
  EXPECT_EQ(res.exchanges[0].status, 301);
  EXPECT_EQ(res.exchanges[1].status, 200);
}

TEST_F(HttpFixture, DnsFailureSurfaces) {
  HttpClient c(net_, client_);
  const auto res = c.fetch("http://no-such-site.net/");
  EXPECT_EQ(res.error.kind, transport::ErrorKind::kResolve);
  EXPECT_FALSE(res.ok());
}

TEST_F(HttpFixture, UnknownHostHeaderGets404) {
  // Resolving works but the web server doesn't host the site: wire up DNS
  // for a hostname the server doesn't know.
  auto authority = std::make_shared<dns::AuthoritativeService>();
  dns::ZoneRecord rec;
  rec.a = {netsim::IpAddr::v4(45, 0, 0, 80)};
  authority->add_record("ghost.com", rec);
  zones_->set_authority("ghost.com", netsim::IpAddr::v4(45, 0, 0, 80));
  // (records merge into the existing authoritative service's host)
  web_host_.bind_service(netsim::Proto::kUdp, netsim::kPortDns, authority);

  HttpClient c(net_, client_);
  const auto res = c.fetch("http://ghost.com/");
  EXPECT_EQ(res.status, 404);
}

TEST_F(HttpFixture, VpnRangeBlocking403) {
  // A client whose address falls in the blocked range sees a 403; our test
  // client (71.80/16) does not.
  HttpClient c(net_, client_);
  EXPECT_EQ(c.fetch("http://stream.com/").status, 200);

  netsim::Host vpn_egress("egress");
  vpn_egress.add_interface("eth0", netsim::IpAddr::v4(45, 0, 32, 10),
                           std::nullopt);
  vpn_egress.routes().add(netsim::Route{*netsim::Cidr::parse("0.0.0.0/0"),
                                        "eth0", std::nullopt, 0});
  vpn_egress.dns_servers().push_back(netsim::IpAddr::v4(8, 8, 8, 8));
  const auto dc = net_.add_router("dc");
  net_.add_link(dc, 1, 1.0);
  net_.attach_host(vpn_egress, dc, 0.5);

  HttpClient blocked(net_, vpn_egress);
  EXPECT_EQ(blocked.fetch("http://stream.com/").status, 403);
}

TEST_F(HttpFixture, LoadPageFetchesSubResources) {
  HttpClient c(net_, client_);
  const auto load = c.load_page("http://plain.com/");
  ASSERT_TRUE(load.document.ok());
  EXPECT_EQ(load.resources.size(), 2u);
  for (const auto& r : load.resources) EXPECT_TRUE(r.ok());
  ASSERT_EQ(load.requested_urls.size(), 3u);
  EXPECT_EQ(load.requested_urls[1], "http://plain.com/static/res0.js");
}

TEST_F(HttpFixture, FetchRecordsExactRequestBytes) {
  HttpClient c(net_, client_);
  const auto res = c.fetch("http://plain.com/");
  ASSERT_TRUE(res.ok());
  // The request is re-encoded exactly from the exchange's Url.
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0], encode_fetch_request(res.exchanges[0].url, {}));
  const auto decoded = HttpRequest::decode(received_[0]);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->header("X-Probe-Marker"), "leave-intact-7719");
}

TEST_F(HttpFixture, RedirectLoopCapped) {
  // secure.com upgrade redirect bounced back down would loop; simulate a
  // loop with a site that redirects to itself via a middlebox-free trick:
  // fetch with max_redirects=0 to force the cap on the first redirect.
  HttpClient c(net_, client_);
  FetchOptions opts;
  opts.max_redirects = 0;
  const auto res = c.fetch("http://secure.com/", opts);
  EXPECT_EQ(res.error.kind, transport::ErrorKind::kRedirectLimit);
}

TEST_F(HttpFixture, HeaderEchoReflectsExactly) {
  auto echo_host = std::make_unique<netsim::Host>("echo");
  echo_host->add_interface("eth0", netsim::IpAddr::v4(45, 0, 0, 81),
                           std::nullopt);
  echo_host->routes().add(netsim::Route{*netsim::Cidr::parse("0.0.0.0/0"),
                                        "eth0", std::nullopt, 0});
  echo_host->bind_service(netsim::Proto::kTcp, netsim::kPortHttp,
                          std::make_shared<HeaderEchoService>());
  net_.attach_host(*echo_host, 1, 0.5);

  HttpClient c(net_, client_);
  const auto res = c.fetch("http://45.0.0.81/");
  ASSERT_TRUE(res.ok());
  // Body must equal the serialized request exactly.
  EXPECT_EQ(res.body, encode_fetch_request(res.exchanges[0].url, {}));
}

}  // namespace
}  // namespace vpna::http
