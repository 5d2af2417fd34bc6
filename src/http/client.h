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
  int max_redirects = 8;
  // Extra headers attached to every request (the measurement suite sends a
  // distinctive, stable header set so proxy rewrites are observable).
  std::vector<Header> headers;
};

// One request/response exchange within a fetch. The response body is not
// kept per exchange: the fetch's final body lives in FetchResult::body.
struct ExchangeRecord {
  Url url;
  std::string request_serialized;   // exact bytes sent
  int status = 0;
  std::vector<Header> response_headers;
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
  FetchResult fetch(const Url& url, const FetchOptions& opts = {});
  FetchResult fetch(std::string_view url_text, const FetchOptions& opts = {});

  // Loads a page and its sub-resources (browser emulation).
  PageLoadResult load_page(std::string_view url_text,
                           const FetchOptions& opts = {});

 private:
  // One exchange without redirect handling; the response body is moved
  // into `body`.
  std::optional<ExchangeRecord> exchange(const Url& url,
                                         const FetchOptions& opts,
                                         transport::Error& error,
                                         std::string& body);

  netsim::Network& net_;
  netsim::Host& host_;
};

}  // namespace vpna::http
