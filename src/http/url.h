// URL handling and the public-suffix-based "related domain" test the paper
// uses to classify HTTP redirects (§6.1.1): two hosts are related when they
// share a registered domain, or their registered domains differ only by
// public suffix.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace vpna::http {

// An absolute http(s) URL parsed in place: every field views the text as
// written, so the scheme and host are not yet lowercased. Url::parse is
// built on it, so both accept exactly the same texts. Callers that only
// read a URL's host use it and copy nothing.
struct UrlView {
  std::string_view scheme;  // "http" or "https" in any case
  std::string_view host;    // non-empty
  std::uint16_t port = 0;   // 0 = none given
  std::string_view path;    // begins with '/', or empty for none

  static std::optional<UrlView> parse(std::string_view text);
};

struct Url {
  std::string scheme;  // "http" or "https"
  std::string host;    // lowercase hostname or IP literal
  std::uint16_t port = 0;  // 0 = scheme default
  std::string path;    // begins with '/'

  [[nodiscard]] std::uint16_t effective_port() const noexcept {
    if (port != 0) return port;
    return scheme == "https" ? 443 : 80;
  }

  [[nodiscard]] std::string str() const;

  // Parses absolute http(s) URLs: scheme://host[:port][/path].
  static std::optional<Url> parse(std::string_view text);

  // Resolves a Location header value against this URL (absolute URLs pass
  // through; paths replace this URL's path).
  [[nodiscard]] Url resolve(std::string_view location) const;

  friend bool operator==(const Url&, const Url&) = default;
};

// The registrable domain of a hostname under a small built-in public-suffix
// list ("a.b.example.com" -> "example.com", "x.example.co.uk" ->
// "example.co.uk"). Returns the input unchanged for IPs and single labels.
[[nodiscard]] std::string registered_domain(std::string_view host);

// The public suffix itself ("com", "co.uk", ...) or "" if none matched.
[[nodiscard]] std::string public_suffix(std::string_view host);

// The paper's relatedness rule: same registered domain, or registered
// domains differing only by public suffix (example.com vs example.org).
[[nodiscard]] bool domains_related(std::string_view host_a,
                                   std::string_view host_b);

}  // namespace vpna::http
