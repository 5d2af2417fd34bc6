#include <gtest/gtest.h>

#include "dns/server.h"
#include "http/client.h"
#include "http/server.h"
#include "tlssim/handshake.h"

namespace vpna::http {
namespace {

// End-to-end HTTP fixture: a client with working DNS and three web hosts,
// each serving one site (one http-only site, one https-upgrading site, one
// VPN-blocking site), as the world places them.
class HttpFixture : public ::testing::Test {
 protected:
  static netsim::IpAddr plain_addr() {
    return netsim::IpAddr::v4(45, 0, 0, 80);
  }
  static netsim::IpAddr secure_addr() {
    return netsim::IpAddr::v4(45, 0, 0, 90);
  }
  static netsim::IpAddr stream_addr() {
    return netsim::IpAddr::v4(45, 0, 0, 100);
  }

  HttpFixture()
      : net_(clock_, util::Rng(3), 0.0),
        client_("client"),
        resolver_host_("resolver"),
        web_host_("web"),
        secure_host_("secure"),
        stream_host_("stream"),
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
    setup(web_host_, plain_addr(), r1);
    setup(secure_host_, secure_addr(), r1);
    setup(stream_host_, stream_addr(), r1);

    // DNS plumbing: one authoritative server, co-hosted with plain.com's
    // web server, holds each site's record.
    auto authority = std::make_shared<dns::AuthoritativeService>();
    const std::pair<const char*, netsim::IpAddr> records[] = {
        {"plain.com", plain_addr()},
        {"secure.com", secure_addr()},
        {"stream.com", stream_addr()}};
    for (const auto& [name, addr] : records) {
      dns::ZoneRecord rec;
      rec.a = {addr};
      authority->add_record(name, rec);
      zones_->set_authority(name, plain_addr());
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

    // Keeps each request's bytes as plain.com's server received them.
    auto plain_web = std::make_shared<WebServerService>(plain);
    web_host_.bind_service(
        netsim::Proto::kTcp, netsim::kPortHttp,
        std::make_shared<netsim::LambdaService>(
            [this, plain_web](netsim::ServiceContext& ctx) {
              received_.push_back(ctx.request.payload);
              return plain_web->handle(ctx);
            }));

    // One service for secure.com on port 80 and behind its terminator on
    // port 443, as the world binds a site host.
    auto secure_web = std::make_shared<WebServerService>(secure);
    secure_host_.bind_service(netsim::Proto::kTcp, netsim::kPortHttp,
                              secure_web);
    secure_host_.bind_service(
        netsim::Proto::kTcp, netsim::kPortHttps,
        std::make_shared<tlssim::TlsTerminator>(
            std::make_shared<const tlssim::CertChain>(
                tlssim::issue_chain("secure.com", "SimTrust Root CA", 1)),
            secure_web));

    stream_host_.bind_service(netsim::Proto::kTcp, netsim::kPortHttp,
                              std::make_shared<WebServerService>(stream));
  }

  // Sends one GET for `url` straight to `server`'s `port` and decodes the
  // reply.
  std::optional<HttpResponse> get(const netsim::IpAddr& server,
                                  std::uint16_t port, std::string_view url) {
    netsim::Packet p;
    p.dst = server;
    p.proto = netsim::Proto::kTcp;
    p.dst_port = port;
    p.payload = encode_fetch_request(*Url::parse(url), {});
    const auto res = net_.transact(client_, std::move(p));
    if (!res.ok()) return std::nullopt;
    return HttpResponse::decode(res.reply);
  }

  util::SimClock clock_;
  netsim::Network net_;
  netsim::Host client_;
  netsim::Host resolver_host_;
  netsim::Host web_host_;  // plain.com and the DNS authority
  netsim::Host secure_host_;
  netsim::Host stream_host_;
  std::shared_ptr<dns::ZoneRegistry> zones_;
  std::vector<std::string> received_;  // plain.com's port-80 requests, in order
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
  rec.a = {plain_addr()};
  authority->add_record("ghost.com", rec);
  zones_->set_authority("ghost.com", plain_addr());
  // Replaces the fixture's authority on this host; only ghost.com is
  // looked up here.
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

TEST_F(HttpFixture, SchemeComesFromThePortARequestArrivedOn) {
  // One WebServerService instance answers both ports of secure.com's host.
  const auto on80 = get(secure_addr(), netsim::kPortHttp, "http://secure.com/");
  ASSERT_TRUE(on80.has_value());
  EXPECT_EQ(on80->status, 301);
  EXPECT_EQ(on80->header("Location"), "https://secure.com/");

  const auto on443 =
      get(secure_addr(), netsim::kPortHttps, "https://secure.com/");
  ASSERT_TRUE(on443.has_value());
  EXPECT_EQ(on443->status, 200);
  EXPECT_NE(on443->body.find("Secure"), std::string::npos);

  // A Host the service does not serve gets 404 on either port.
  for (const std::uint16_t port : {netsim::kPortHttp, netsim::kPortHttps}) {
    const auto foreign = get(secure_addr(), port, "http://plain.com/");
    ASSERT_TRUE(foreign.has_value()) << port;
    EXPECT_EQ(foreign->status, 404) << port;
    EXPECT_NE(foreign->body.find("no such site"), std::string::npos) << port;
  }
}

TEST_F(HttpFixture, RedirectLoopCapped) {
  // A server that redirects every request to itself: the client follows
  // eight redirects, so it records nine exchanges, then gives up.
  auto loop_host = std::make_unique<netsim::Host>("loop");
  loop_host->add_interface("eth0", netsim::IpAddr::v4(45, 0, 0, 82),
                           std::nullopt);
  loop_host->routes().add(netsim::Route{*netsim::Cidr::parse("0.0.0.0/0"),
                                        "eth0", std::nullopt, 0});
  const Header location[] = {{"Location", "http://45.0.0.82/"}};
  loop_host->bind_service(
      netsim::Proto::kTcp, netsim::kPortHttp,
      std::make_shared<netsim::LambdaService>(
          [&location](netsim::ServiceContext&) -> std::optional<std::string> {
            return encode_response(302, "Found", location, "");
          }));
  net_.attach_host(*loop_host, 1, 0.5);

  HttpClient c(net_, client_);
  const auto res = c.fetch("http://45.0.0.82/");
  EXPECT_EQ(res.error.kind, transport::ErrorKind::kRedirectLimit);
  EXPECT_FALSE(res.ok());
  ASSERT_EQ(res.exchanges.size(), 9u);
  for (const auto& ex : res.exchanges) {
    EXPECT_EQ(ex.status, 302);
    EXPECT_EQ(ex.location, "http://45.0.0.82/");
  }
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
