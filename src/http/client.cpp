#include "http/client.h"

#include "dns/client.h"
#include "obs/trace.h"
#include "transport/flow.h"

namespace vpna::http {

namespace {
// Redirects a fetch follows before giving up with kRedirectLimit: nine
// exchanges at most.
constexpr int kMaxRedirects = 8;

// Stable, distinctive default header set (ordering matters: in-path proxies
// that parse and regenerate requests disturb it).
const std::vector<Header>& default_headers() {
  static const std::vector<Header> kHeaders = {
      {"User-Agent", "vpna-probe/1.0 (Macintosh; like Gecko)"},
      {"Accept", "text/html,application/xhtml+xml;q=0.9,*/*;q=0.8"},
      {"Accept-Language", "en-US,en;q=0.5"},
      {"X-Probe-Marker", "leave-intact-7719"},
  };
  return kHeaders;
}
}  // namespace

std::string encode_fetch_request(const Url& url, const FetchOptions& opts) {
  return encode_request("GET", url.host, url.path,
                        opts.headers.empty() ? default_headers() : opts.headers,
                        {});
}

std::optional<ExchangeRecord> HttpClient::exchange(const Url& url,
                                                   const FetchOptions& opts,
                                                   transport::Error& error,
                                                   std::string& body) {
  // Resolve the hostname (IP literals pass through) through the host's
  // browser cache; a hit is read in place, not copied. The full candidate
  // list goes to the flow, which walks it when the session policy enables
  // address fallback.
  std::span<const netsim::IpAddr> candidates;
  dns::LookupResult lookup;
  const auto literal = netsim::IpAddr::parse(url.host);
  if (literal) {
    candidates = {&*literal, 1};
  } else {
    candidates = dns::resolve_browser_view(net_, host_, url.host,
                                           dns::RrType::kA, lookup);
    if (!lookup.ok() || candidates.empty()) {
      error = transport::Error::resolve(lookup.error);
      return std::nullopt;
    }
  }

  netsim::TransactOptions topts;
  // TCP handshake = 1 extra RTT; TLS adds 2 more.
  topts.extra_round_trips = url.scheme == "https" ? 3 : 1;
  transport::Flow flow(net_, host_, netsim::Proto::kTcp, candidates,
                       url.effective_port(), topts);
  auto result = flow.exchange(encode_fetch_request(url, opts));
  if (!result.ok()) {
    error = result.error;
    return std::nullopt;
  }
  const auto resp = HttpResponseView::parse(result.reply);
  if (!resp) {
    error = transport::Error::parse();
    return std::nullopt;
  }

  ExchangeRecord rec;
  rec.url = url;
  rec.status = resp->status;
  if (is_redirect(resp->status)) {
    if (const auto location = resp->header("Location"))
      rec.location = std::string(*location);
  }
  rec.server_addr = result.remote;
  rec.rtt_ms = result.rtt_ms;
  // The body is the reply buffer minus its head.
  const auto head = static_cast<std::size_t>(resp->body.data() -
                                             result.reply.data());
  body = std::move(result.reply);
  body.erase(0, head);
  return rec;
}

FetchResult HttpClient::fetch(Url url, const FetchOptions& opts) {
  obs::Span span("http.fetch", "http");
  if (span) span.arg("url", url.str());
  obs::count("http.fetches");
  // Records the outcome; callers then return `out` by name, so the result
  // is never copied.
  const auto finish = [&span](const FetchResult& r) {
    if (!r.error.ok()) obs::count("http.fetch_errors");
    if (!r.exchanges.empty())
      obs::count("http.exchanges", r.exchanges.size());
    if (span) {
      span.arg("status", static_cast<std::int64_t>(r.status));
      span.arg("error", transport::error_name(r.error));
      span.arg("redirects",
               static_cast<std::int64_t>(
                   r.exchanges.empty() ? 0 : r.exchanges.size() - 1));
    }
  };

  FetchResult out;
  Url current = std::move(url);
  std::string body;
  for (int hop = 0; hop <= kMaxRedirects; ++hop) {
    transport::Error error = transport::Error::not_attempted();
    auto rec = exchange(current, opts, error, body);
    if (!rec) {
      out.error = error;
      out.final_url = std::move(current);
      finish(out);
      return out;
    }
    const ExchangeRecord& last = out.exchanges.emplace_back(std::move(*rec));
    if (is_redirect(last.status)) {
      if (!last.location) {
        out.error = transport::Error::parse();
        out.final_url = std::move(current);
        finish(out);
        return out;
      }
      current = current.resolve(*last.location);
      continue;
    }
    out.error = transport::Error::none();
    out.final_url = std::move(current);
    out.status = last.status;
    out.body = std::move(body);
    finish(out);
    return out;
  }
  out.error = transport::Error::redirect_limit();
  out.final_url = std::move(current);
  finish(out);
  return out;
}

FetchResult HttpClient::fetch(std::string_view url_text,
                              const FetchOptions& opts) {
  auto url = Url::parse(url_text);
  if (!url) {
    // Nothing was sent: an unparseable URL is a parse failure on a flow
    // that never got attempted at the transport level.
    FetchResult out;
    out.error = transport::Error::parse();
    return out;
  }
  return fetch(std::move(*url), opts);
}

PageLoadResult HttpClient::load_page(std::string_view url_text,
                                     const FetchOptions& opts) {
  obs::Span span("http.page_load", "http");
  if (span) span.arg("url", url_text);
  obs::count("http.page_loads");

  PageLoadResult out;
  out.requested_urls.emplace_back(url_text);
  out.document = fetch(url_text, opts);
  if (!out.document.ok()) return out;

  // Extract script src references from the final DOM and fetch each. This
  // includes any scripts an in-path party injected, mirroring how a real
  // browser would dutifully load injected content.
  const std::string& dom = out.document.body;
  std::size_t pos = 0;
  while ((pos = dom.find("src=\"", pos)) != std::string::npos) {
    pos += 5;
    const std::size_t end = dom.find('"', pos);
    if (end == std::string::npos) break;
    const std::string_view res_url(dom.data() + pos, end - pos);
    pos = end;
    if (!res_url.starts_with("http")) continue;
    out.requested_urls.emplace_back(res_url);
    out.resources.push_back(fetch(res_url, opts));
  }
  if (span)
    span.arg("resources", static_cast<std::int64_t>(out.resources.size()));
  return out;
}

}  // namespace vpna::http
