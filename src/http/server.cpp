#include "http/server.h"

#include "util/strings.h"

namespace vpna::http {

bool Site::blocks(const netsim::IpAddr& client) const {
  for (const auto& range : blocked_ranges)
    if (range.contains(client)) return true;
  return false;
}

void WebServerService::add_site(std::shared_ptr<const Site> site) {
  sites_[site->hostname] = std::move(site);
}

const Site* WebServerService::find_site(std::string_view hostname) const {
  const auto it = sites_.find(hostname);
  return it == sites_.end() ? nullptr : it->second.get();
}

std::optional<std::string> WebServerService::handle(
    netsim::ServiceContext& ctx) {
  static const std::vector<Header> kBlockedHeaders = {{"Server", "edge-gw"}};
  static const std::vector<Header> kPageHeaders = {
      {"Content-Type", "text/html"}, {"Server", "httpd/1.4"}};

  const auto req = HttpRequestView::parse(ctx.request.payload);
  if (!req) return encode_response(400, "Bad Request", {}, {});

  const Site* site = find_site(req->host);
  if (site == nullptr) {
    return encode_response(404, "Not Found", {},
                           "<html><body>no such site</body></html>");
  }

  // VPN-range discrimination happens before anything else: the site keys on
  // the client address it sees (the VPN egress, not the true client).
  if (site->blocks(ctx.request.src)) {
    if (site->blocks_with_empty_200)
      return encode_response(200, "OK", kBlockedHeaders, {});
    return encode_response(403, "Forbidden", kBlockedHeaders,
                           "<html><body>Access denied</body></html>");
  }

  // Scheme upgrade redirect.
  if (!https_ && site->upgrades_to_https && site->https_available) {
    std::string location = "https://" + site->hostname;
    location += req->path;
    const Header headers[] = {{"Location", std::move(location)}};
    return encode_response(301, "Moved Permanently", headers, {});
  }

  const auto page_it = site->pages.find(req->path);
  if (page_it == site->pages.end()) {
    return encode_response(404, "Not Found", {},
                           "<html><body>not found</body></html>");
  }
  return encode_response(200, "OK", kPageHeaders, page_it->second.html);
}

std::optional<std::string> HeaderEchoService::handle(
    netsim::ServiceContext& ctx) {
  static const std::vector<Header> kHeaders = {{"Content-Type", "text/plain"}};
  if (!HttpRequestView::parse(ctx.request.payload))
    return encode_response(400, "Bad Request", {}, {});
  // The body is the byte-exact request as received; any in-path parse-and-
  // regenerate proxy shows up as a diff against what the client sent.
  return encode_response(200, "OK", kHeaders, ctx.request.payload);
}

Page make_basic_page(std::string_view hostname, std::string_view title,
                     int resource_count) {
  Page p;
  p.html = util::format(
      "<html><head><title>%.*s</title></head><body>"
      "<h1>%.*s</h1><p>content served by %.*s</p>",
      static_cast<int>(title.size()), title.data(),
      static_cast<int>(title.size()), title.data(),
      static_cast<int>(hostname.size()), hostname.data());
  for (int i = 0; i < resource_count; ++i) {
    const std::string url = util::format("http://%.*s/static/res%d.js",
                                         static_cast<int>(hostname.size()),
                                         hostname.data(), i);
    p.html += util::format("<script src=\"%s\"></script>", url.c_str());
    p.resources.push_back(url);
  }
  p.html += "</body></html>";
  return p;
}

Page make_honeysite_page(std::string_view hostname, bool with_ad_slot) {
  Page p;
  p.html = util::format(
      "<html><head><title>honeysite</title></head><body>"
      "<div id=\"static-content\">unchanging reference text</div>");
  if (with_ad_slot) {
    // Invalid publisher id so no real ad system would ever fill the slot.
    const std::string ad_url =
        "http://ads.adnet-one.com/serve.js?pub=invalid-0000";
    p.html += util::format(
        "<div class=\"ad-slot\"><script src=\"%s\"></script></div>",
        ad_url.c_str());
    p.resources.push_back(ad_url);
  }
  p.html += util::format("<footer>hosted at %.*s</footer></body></html>",
                         static_cast<int>(hostname.size()), hostname.data());
  return p;
}

}  // namespace vpna::http
