#include "inet/censor.h"

#include <gtest/gtest.h>

#include "http/client.h"
#include "inet/world.h"

namespace vpna::inet {
namespace {

TEST(SiteDirectory, CategoryLookup) {
  SiteDirectory dir;
  dir.set_category("porn.example.com", SiteCategory::kPornography);
  EXPECT_EQ(dir.category_of("porn.example.com"), SiteCategory::kPornography);
  EXPECT_FALSE(dir.category_of("other.com").has_value());
}

TEST(CategoryName, AllNamed) {
  EXPECT_EQ(category_name(SiteCategory::kPornography), "pornography");
  EXPECT_EQ(category_name(SiteCategory::kFileSharing), "file-sharing");
  EXPECT_EQ(category_name(SiteCategory::kInfrastructure), "infrastructure");
}

TEST(CensorMiddlebox, RedirectsBlockedCategory) {
  auto dir = std::make_shared<SiteDirectory>();
  dir->set_category("bad.example.com", SiteCategory::kPornography);
  CensorPolicy policy;
  policy.operator_name = "TestCensor";
  policy.country_code = "XX";
  policy.redirect_url = "http://blockpage.example";
  policy.blocked_categories = {SiteCategory::kPornography};
  CensorMiddlebox censor(policy, dir);

  http::HttpRequest req;
  req.host = "bad.example.com";
  netsim::Packet p;
  p.proto = netsim::Proto::kTcp;
  p.dst_port = netsim::kPortHttp;
  p.payload = req.encode();

  const auto verdict = censor.on_transit(p);
  EXPECT_EQ(verdict.action, netsim::Middlebox::Action::kRespond);
  const auto resp = http::HttpResponse::decode(verdict.response_payload);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 302);
  EXPECT_EQ(resp->header("Location"), "http://blockpage.example");
}

TEST(CensorMiddlebox, PassesUnblockedTraffic) {
  auto dir = std::make_shared<SiteDirectory>();
  dir->set_category("ok.example.com", SiteCategory::kNews);
  CensorPolicy policy;
  policy.blocked_categories = {SiteCategory::kPornography};
  CensorMiddlebox censor(policy, dir);

  http::HttpRequest req;
  req.host = "ok.example.com";
  netsim::Packet p;
  p.proto = netsim::Proto::kTcp;
  p.dst_port = netsim::kPortHttp;
  p.payload = req.encode();
  EXPECT_EQ(censor.on_transit(p).action, netsim::Middlebox::Action::kPass);
}

TEST(CensorMiddlebox, BlocksExactHostname) {
  auto dir = std::make_shared<SiteDirectory>();
  CensorPolicy policy;
  policy.redirect_url = "http://blockpage.example";
  policy.blocked_hosts = {"wikipedia.org"};
  CensorMiddlebox censor(policy, dir);

  http::HttpRequest req;
  req.host = "wikipedia.org";
  netsim::Packet p;
  p.proto = netsim::Proto::kTcp;
  p.dst_port = netsim::kPortHttp;
  p.payload = req.encode();
  EXPECT_EQ(censor.on_transit(p).action, netsim::Middlebox::Action::kRespond);
}

TEST(CensorMiddlebox, IgnoresNonHttpTraffic) {
  auto dir = std::make_shared<SiteDirectory>();
  dir->set_category("bad.example.com", SiteCategory::kPornography);
  CensorPolicy policy;
  policy.blocked_categories = {SiteCategory::kPornography};
  CensorMiddlebox censor(policy, dir);

  http::HttpRequest req;
  req.host = "bad.example.com";

  // HTTPS traffic (port 443) passes uninspected.
  netsim::Packet https;
  https.proto = netsim::Proto::kTcp;
  https.dst_port = netsim::kPortHttps;
  https.payload = req.encode();
  EXPECT_EQ(censor.on_transit(https).action, netsim::Middlebox::Action::kPass);

  // DNS passes.
  netsim::Packet dns;
  dns.proto = netsim::Proto::kUdp;
  dns.dst_port = netsim::kPortDns;
  EXPECT_EQ(censor.on_transit(dns).action, netsim::Middlebox::Action::kPass);

  // Garbage on port 80 passes (not parseable HTTP).
  netsim::Packet junk;
  junk.proto = netsim::Proto::kTcp;
  junk.dst_port = netsim::kPortHttp;
  junk.payload = "not http at all";
  EXPECT_EQ(censor.on_transit(junk).action, netsim::Middlebox::Action::kPass);
}

// End-to-end: a client behind the Turkish datacenter gets the national
// block page when visiting censored content; a US client does not.
TEST(CensorEndToEnd, TurkishEgressRedirected) {
  World w(99);
  auto* tr_dc = w.datacenter_by_id("anatolia-ist");
  ASSERT_NE(tr_dc, nullptr);
  auto& tr_host = w.spawn_server(*tr_dc, "tr-client");
  tr_host.dns_servers().push_back(w.google_dns());

  http::HttpClient c(w.network(), tr_host);
  const auto res = c.fetch("http://adult-theater-x.com/");
  ASSERT_TRUE(res.ok());
  ASSERT_GE(res.exchanges.size(), 2u);
  EXPECT_EQ(res.exchanges[0].status, 302);
  EXPECT_EQ(res.final_url.host, "195.175.254.2");
  EXPECT_NE(res.body.find("restricted"), std::string::npos);

  // Unrelated content is reachable from the same egress.
  const auto ok = c.fetch("http://daily-courier-news.com/");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.final_url.host, "daily-courier-news.com");

  // A US client is not redirected.
  auto& us = w.spawn_client("Chicago", "us-client");
  http::HttpClient cu(w.network(), us);
  const auto free = cu.fetch("http://adult-theater-x.com/");
  ASSERT_TRUE(free.ok());
  EXPECT_EQ(free.final_url.host, "adult-theater-x.com");
}

TEST(CensorEndToEnd, RussianIspsUseDistinctBlockpages) {
  World w(99);
  const auto fetch_from = [&](const char* dc_id, const char* name) {
    auto* dc = w.datacenter_by_id(dc_id);
    auto& h = w.spawn_server(*dc, name);
    h.dns_servers().push_back(w.google_dns());
    http::HttpClient c(w.network(), h);
    return c.fetch("http://torrent-harbor.net/");
  };
  const auto ttk = fetch_from("ttk-mow", "ru-1");
  const auto rt = fetch_from("rt-led", "ru-2");
  ASSERT_TRUE(ttk.ok());
  ASSERT_TRUE(rt.ok());
  EXPECT_EQ(ttk.final_url.host, "fz139.ttk.ru");
  EXPECT_EQ(rt.final_url.host, "warning.rt.ru");
}

TEST(CensorEndToEnd, RussiaBlocksNamedHosts) {
  World w(99);
  auto* dc = w.datacenter_by_id("ttk-mow");
  auto& h = w.spawn_server(*dc, "ru-host");
  h.dns_servers().push_back(w.google_dns());
  http::HttpClient c(w.network(), h);
  EXPECT_EQ(c.fetch("http://jw.org/").final_url.host, "fz139.ttk.ru");
  EXPECT_EQ(c.fetch("http://linkedin.com/").final_url.host, "fz139.ttk.ru");
}

TEST(CensorEndToEnd, TurkeyBlocksWikipedia) {
  World w(99);
  auto* dc = w.datacenter_by_id("anatolia-ank");
  auto& h = w.spawn_server(*dc, "tr-host");
  h.dns_servers().push_back(w.google_dns());
  http::HttpClient c(w.network(), h);
  EXPECT_EQ(c.fetch("http://wikipedia.org/").final_url.host, "195.175.254.2");
}

}  // namespace
}  // namespace vpna::inet
