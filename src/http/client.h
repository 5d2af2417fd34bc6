// Browser-style HTTP client: resolves names through the host's browser
// cache over its configured DNS (dns::resolve_browser), opens (simulated)
// TCP/TLS connections, follows redirect chains, and records a structured
// log of every request/response pair — the raw material for the
// DOM-collection, redirect-classification and TLS-downgrade tests.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "http/message.h"
#include "http/url.h"
#include "netsim/host.h"
#include "netsim/network.h"
#include "transport/error.h"

namespace vpna::http {

struct FetchOptions {
  // Extra headers attached to every request (the measurement suite sends a
  // distinctive, stable header set so proxy rewrites are observable).
  std::vector<Header> headers;
};

// The exact request bytes fetch() sends for `url` under `opts`. Encoding is
// deterministic, so a caller that needs the bytes it sent (the
// transparent-proxy test) re-encodes them instead of the client keeping a
// copy of every request.
[[nodiscard]] std::string encode_fetch_request(const Url& url,
                                               const FetchOptions& opts);

// One request/response exchange within a fetch. Neither message is kept:
// the fetch's final body lives in FetchResult::body, and a redirect keeps
// only where it pointed.
struct ExchangeRecord {
  Url url;
  int status = 0;
  // A redirect's Location header, when it had one.
  std::optional<std::string> location;
  netsim::IpAddr server_addr;       // address actually contacted
  double rtt_ms = 0.0;
};

struct FetchResult {
  // not-attempted until the client actually sent something; a fetch whose
  // URL never parsed stays distinguishable from a routing failure.
  transport::Error error;
  Url final_url;
  int status = 0;
  std::string body;
  std::vector<ExchangeRecord> exchanges;  // full redirect chain

  [[nodiscard]] bool ok() const noexcept {
    return error.ok() && status >= 200 && status < 400;
  }
};

// A full page load: the document plus every sub-resource it references.
struct PageLoadResult {
  FetchResult document;
  std::vector<FetchResult> resources;
  // The set of URLs requested during the load, in order — the "request log"
  // the paper's Selenium harness captures.
  std::vector<std::string> requested_urls;

  // The final DOM: document body after all loads (sub-resource fetches do
  // not rewrite the DOM in the simulator unless an in-path entity injected
  // content into the document itself).
  [[nodiscard]] const std::string& dom() const noexcept {
    return document.body;
  }
};

class HttpClient {
 public:
  HttpClient(netsim::Network& net, netsim::Host& host)
      : net_(net), host_(host) {}

  // GET with redirect following.
  FetchResult fetch(Url url, const FetchOptions& opts = {});
  FetchResult fetch(std::string_view url_text, const FetchOptions& opts = {});

  // Loads a page and its sub-resources (browser emulation).
  PageLoadResult load_page(std::string_view url_text,
                           const FetchOptions& opts = {});

 private:
  // One exchange without redirect handling; the response body is moved
  // into `body` (the reply buffer, its head erased).
  std::optional<ExchangeRecord> exchange(const Url& url,
                                         const FetchOptions& opts,
                                         transport::Error& error,
                                         std::string& body);

  netsim::Network& net_;
  netsim::Host& host_;
};

}  // namespace vpna::http
