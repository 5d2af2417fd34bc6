#include "core/manipulation_tests.h"

#include <set>

#include "dns/client.h"
#include "http/client.h"
#include "tlssim/handshake.h"
#include "util/strings.h"

namespace vpna::core {

DnsManipulationResult run_dns_manipulation_test(inet::World& world,
                                                netsim::Host& client) {
  DnsManipulationResult out;
  // A small fixed panel of popular names whose WHOIS records parse cleanly
  // (the paper's test works the same way, with human follow-up).
  const std::vector<std::string> names = {
      "daily-courier-news.com", "bargain-basket.com", "chatter-square.com",
      "global-mart-online.com", "stock-ticker-watch.com",
      "streambox-video.com",    "linkedin.com",       "wikipedia.org",
  };

  for (const auto& name : names) {
    ++out.names_tested;
    const auto via_default =
        dns::resolve_system(world.network(), client, name, dns::RrType::kA);
    const auto via_google = dns::query(world.network(), client,
                                       world.google_dns(), name, dns::RrType::kA);
    if (!via_default.ok() || !via_google.ok()) continue;
    if (via_default.addresses.empty() || via_google.addresses.empty()) continue;
    if (via_default.addresses.front() == via_google.addresses.front()) continue;

    DnsMismatch mismatch;
    mismatch.hostname = name;
    mismatch.via_default = via_default.addresses.front().str();
    mismatch.via_google = via_google.addresses.front().str();
    const auto owner_default = world.whois().lookup(via_default.addresses.front());
    const auto owner_google = world.whois().lookup(via_google.addresses.front());
    mismatch.default_owner =
        owner_default ? owner_default->organisation : "(unknown)";
    mismatch.google_owner =
        owner_google ? owner_google->organisation : "(unknown)";
    // CDN rotation yields different addresses under the same owner;
    // different (or unknown) ownership flags the answer for investigation.
    mismatch.suspicious = mismatch.default_owner != mismatch.google_owner ||
                          mismatch.default_owner == "(unknown)";
    out.mismatches.push_back(std::move(mismatch));
  }
  return out;
}

std::vector<const PageObservation*> DomCollectionResult::unrelated_redirects()
    const {
  std::vector<const PageObservation*> out;
  for (const auto& p : pages)
    if (p.redirect == RedirectClass::kUnrelated) out.push_back(&p);
  return out;
}

std::vector<const PageObservation*> DomCollectionResult::modified_doms() const {
  std::vector<const PageObservation*> out;
  for (const auto& p : pages)
    if (p.load_ok && !p.dom_matches_groundtruth) out.push_back(&p);
  return out;
}

namespace {

// "http://<hostname>/", the URL each suite first loads for a site.
std::string root_url(std::string_view hostname) {
  std::string url;
  url.reserve(8 + hostname.size());
  url += "http://";
  url += hostname;
  url += '/';
  return url;
}

// True if the URL host `host`, lowercased, equals `lower`: Url::parse's
// host comparison without the lowercased copy.
bool host_is(std::string_view host, std::string_view lower) {
  if (host.size() != lower.size()) return false;
  for (std::size_t i = 0; i < host.size(); ++i)
    if (util::ascii_lower(host[i]) != lower[i]) return false;
  return true;
}

PageObservation observe_page(inet::World& world, netsim::Host& client,
                             const GroundTruth& truth,
                             std::string_view hostname) {
  PageObservation obs;
  obs.hostname = std::string(hostname);

  http::HttpClient c(world.network(), client);
  const auto load = c.load_page(root_url(hostname));
  obs.load_ok = load.document.ok();
  obs.final_host = load.document.final_url.host;

  if (!load.document.exchanges.empty() &&
      load.document.exchanges.front().status >= 300 &&
      load.document.exchanges.front().status < 400) {
    obs.redirect = http::domains_related(hostname, obs.final_host)
                       ? RedirectClass::kRelated
                       : RedirectClass::kUnrelated;
  }

  if (obs.load_ok) {
    // DOM comparison only makes sense when the load actually ended on the
    // requested site with content; a redirected load (censorship block
    // page) is already classified via `redirect`, and an empty 200 is the
    // VPN-range blocking behaviour the TLS test accounts separately.
    if (const auto* gt_dom = truth.dom(hostname);
        gt_dom != nullptr && obs.redirect == RedirectClass::kNone &&
        !load.dom().empty())
      obs.dom_matches_groundtruth = load.dom() == *gt_dom;
    // Request-log diff: anything fetched that ground truth does not
    // explain (same-origin resources and the known ad slot are expected).
    for (const auto& url : load.requested_urls) {
      const auto parsed = http::UrlView::parse(url);
      if (!parsed) continue;
      if (host_is(parsed->host, hostname)) continue;
      if (host_is(parsed->host, "ads.adnet-one.com")) continue;  // honeysite slot
      obs.unexpected_request_urls.push_back(url);
    }
  }
  return obs;
}

}  // namespace

DomCollectionResult run_dom_collection_test(inet::World& world,
                                            netsim::Host& client,
                                            const GroundTruth& truth) {
  DomCollectionResult out;
  out.pages.reserve(inet::dom_test_sites().size() + 2);
  for (const auto& site : inet::dom_test_sites())
    out.pages.push_back(observe_page(world, client, truth, site.hostname));
  out.pages.push_back(
      observe_page(world, client, truth, inet::honeysite_plain()));
  out.pages.push_back(observe_page(world, client, truth, inet::honeysite_ads()));
  return out;
}

int TlsTestResult::interception_count() const {
  int n = 0;
  for (const auto& h : hosts)
    if (h.handshake_ok && (!h.chain_valid || !h.fingerprint_matches)) ++n;
  return n;
}

int TlsTestResult::stripped_count() const {
  int n = 0;
  for (const auto& h : hosts)
    if (h.upgrade_stripped) ++n;
  return n;
}

int TlsTestResult::blocked_count() const {
  int n = 0;
  for (const auto& h : hosts)
    if (h.blocked_403 || h.empty_200) ++n;
  return n;
}

TlsTestResult run_tls_test(inet::World& world, netsim::Host& client,
                           const GroundTruth& truth) {
  TlsTestResult out;
  http::HttpClient c(world.network(), client);

  const auto observe = [&](std::string_view hostname, bool https_available) {
    TlsObservation obs;
    obs.hostname = std::string(hostname);

    // Step 1: direct TLS negotiation + fingerprint comparison.
    if (https_available) {
      const auto lookup = dns::resolve_browser(world.network(), client,
                                               hostname, dns::RrType::kA);
      if (lookup.ok() && !lookup.addresses.empty()) {
        const auto hs =
            tlssim::tls_handshake(world.network(), client,
                                  lookup.addresses.front(), hostname,
                                  world.ca_store(), world.chain_memo());
        obs.handshake_ok = hs.completed();
        if (hs.completed()) {
          obs.chain_valid =
              hs.validation == tlssim::ValidationStatus::kValid;
          if (hs.chain->root() != nullptr)
            obs.presented_issuer = hs.chain->root()->issuer;
          if (const auto* gt_fp = truth.fingerprint(hostname))
            obs.fingerprint_matches =
                hs.chain->leaf()->key_fingerprint == *gt_fp;
        }
      }
    }

    // Step 2: HTTP-first load, following redirects.
    const auto res = c.fetch(root_url(hostname));
    obs.http_status = res.status;
    obs.upgraded_to_https = res.final_url.scheme == "https";
    obs.blocked_403 = res.status == 403;
    obs.empty_200 = res.status == 200 && res.body.empty();
    // Stripping = ground truth upgraded but this load stayed on HTTP
    // with a successful (non-blocked) response.
    if (const auto* gt_final = truth.final_url(hostname);
        gt_final != nullptr && util::starts_with(*gt_final, "https://")) {
      obs.upgrade_stripped = res.ok() && !obs.upgraded_to_https;
    }
    out.hosts.push_back(std::move(obs));
  };

  out.hosts.reserve(inet::dom_test_sites().size() +
                    inet::tls_scan_sites().size());
  for (const auto& site : inet::dom_test_sites())
    observe(site.hostname, site.https_available);
  for (const auto& site : inet::tls_scan_sites())
    observe(site.hostname, site.https_available);
  return out;
}

}  // namespace vpna::core
