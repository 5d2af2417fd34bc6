// The simulated web: sites with pages and sub-resources, served by a
// WebServerService bound on ports 80/443 of a datacenter host. Sites can
// upgrade HTTP to HTTPS, block requests arriving from known-VPN address
// ranges (the behaviour behind the paper's §6.1.2 403 findings), and act as
// honeysites (static, injection-friendly DOM with ad-slot markers).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "http/message.h"
#include "netsim/host.h"
#include "netsim/network.h"

namespace vpna::http {

struct Page {
  std::string html;
  // Absolute URLs of sub-resources the page references (scripts, images,
  // ad slots). A browser-style loader fetches each of these.
  std::vector<std::string> resources;
};

struct Site {
  std::string hostname;
  std::map<std::string, Page, std::less<>> pages;  // path -> page
  bool https_available = true;
  // Redirect http:// requests to https:// (301).
  bool upgrades_to_https = false;
  // Address ranges this site refuses to serve (HTTP 403) — how streaming
  // and similar services discriminate against known VPN egress blocks.
  std::vector<netsim::Cidr> blocked_ranges;
  // When true the site answers blocked clients with 200 and an empty body
  // instead of 403 (the paper saw both variants).
  bool blocks_with_empty_200 = false;

  [[nodiscard]] bool blocks(const netsim::IpAddr& client) const;
};

// Serves one or more sites on a host. The same service instance is bound on
// port 80 and port 443; `https` distinguishes the scheme semantics.
class WebServerService final : public netsim::Service {
 public:
  explicit WebServerService(bool https) : https_(https) {}

  void add_site(std::shared_ptr<const Site> site);
  [[nodiscard]] const Site* find_site(std::string_view hostname) const;

  std::optional<std::string> handle(netsim::ServiceContext& ctx) override;

 private:
  bool https_;
  std::map<std::string, std::shared_ptr<const Site>, std::less<>> sites_;
};

// A reflection endpoint: answers any request with a body containing the
// exact serialized request it received. The proxy-detection test compares
// this against what the client sent.
class HeaderEchoService final : public netsim::Service {
 public:
  std::optional<std::string> handle(netsim::ServiceContext& ctx) override;
};

// Convenience: builds the standard page set for a simulated site (a root
// page with a handful of same-origin sub-resources).
[[nodiscard]] Page make_basic_page(std::string_view hostname,
                                   std::string_view title, int resource_count);

// Builds a honeysite page: static DOM with an ad-slot script include, using
// deliberately invalid publisher identifiers (per the paper's methodology).
[[nodiscard]] Page make_honeysite_page(std::string_view hostname,
                                       bool with_ad_slot);

}  // namespace vpna::http
