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

std::shared_ptr<const Site> WebServerService::find_site(
    std::string_view hostname) const {
  const auto it = sites_.find(hostname);
  return it == sites_.end() ? nullptr : it->second;
}

std::optional<std::string> WebServerService::handle(
    netsim::ServiceContext& ctx) {
  const auto req = HttpRequest::decode(ctx.request.payload);
  if (!req) {
    HttpResponse bad;
    bad.status = 400;
    bad.reason = "Bad Request";
    return bad.encode();
  }

  HttpResponse resp;
  const auto site = find_site(req->host);
  if (site == nullptr) {
    resp.status = 404;
    resp.reason = "Not Found";
    resp.body = "<html><body>no such site</body></html>";
    return resp.encode();
  }

  // VPN-range discrimination happens before anything else: the site keys on
  // the client address it sees (the VPN egress, not the true client).
  if (site->blocks(ctx.request.src)) {
    if (site->blocks_with_empty_200) {
      resp.status = 200;
      resp.reason = "OK";
      resp.body = "";
    } else {
      resp.status = 403;
      resp.reason = "Forbidden";
      resp.body = "<html><body>Access denied</body></html>";
    }
    resp.set_header("Server", "edge-gw");
    return resp.encode();
  }

  // Scheme upgrade redirect.
  if (!https_ && site->upgrades_to_https && site->https_available) {
    resp.status = 301;
    resp.reason = "Moved Permanently";
    resp.set_header("Location", "https://" + site->hostname + req->path);
    return resp.encode();
  }

  const auto page_it = site->pages.find(req->path);
  if (page_it == site->pages.end()) {
    resp.status = 404;
    resp.reason = "Not Found";
    resp.body = "<html><body>not found</body></html>";
    return resp.encode();
  }

  resp.status = 200;
  resp.reason = "OK";
  resp.set_header("Content-Type", "text/html");
  resp.set_header("Server", "httpd/1.4");
  resp.body = page_it->second.html;
  return resp.encode();
}

std::optional<std::string> HeaderEchoService::handle(
    netsim::ServiceContext& ctx) {
  const auto req = HttpRequest::decode(ctx.request.payload);
  HttpResponse resp;
  if (!req) {
    resp.status = 400;
    resp.reason = "Bad Request";
    return resp.encode();
  }
  resp.status = 200;
  resp.reason = "OK";
  resp.set_header("Content-Type", "text/plain");
  // The body is the byte-exact request as received; any in-path parse-and-
  // regenerate proxy shows up as a diff against what the client sent.
  resp.body = ctx.request.payload;
  return resp.encode();
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
