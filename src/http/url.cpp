#include "http/url.h"

#include <array>
#include <charconv>

#include "util/strings.h"

namespace vpna::http {

namespace {

// Minimal public-suffix list covering the TLDs the simulated web uses.
constexpr std::array<std::string_view, 22> kSuffixes = {
    "co.uk", "org.uk", "ac.uk", "com.au", "net.au", "com.br", "com.cn",
    "co.jp", "co.kr", "com.tr", "com",    "org",    "net",    "ru",
    "de",    "fr",     "nl",    "io",     "me",     "kr",     "uk",
    "guide",
};

}  // namespace

std::string Url::str() const {
  std::string s;
  s.reserve(scheme.size() + 3 + host.size() + 6 + path.size() + 1);
  s += scheme;
  s += "://";
  s += host;
  if (port != 0) {
    s += ':';
    s += std::to_string(port);
  }
  s += path.empty() ? std::string_view("/") : std::string_view(path);
  return s;
}

std::optional<UrlView> UrlView::parse(std::string_view text) {
  UrlView u;
  const std::size_t scheme_end = text.find("://");
  if (scheme_end == std::string_view::npos) return std::nullopt;
  u.scheme = text.substr(0, scheme_end);
  if (!util::iequals(u.scheme, "http") && !util::iequals(u.scheme, "https"))
    return std::nullopt;
  std::string_view rest = text.substr(scheme_end + 3);
  if (rest.empty()) return std::nullopt;

  const std::size_t path_start = rest.find('/');
  std::string_view authority =
      path_start == std::string_view::npos ? rest : rest.substr(0, path_start);
  if (path_start != std::string_view::npos) u.path = rest.substr(path_start);

  // Split host[:port]; IPv6 literals are not used by the simulated web.
  const std::size_t colon = authority.rfind(':');
  if (colon != std::string_view::npos) {
    const auto port_text = authority.substr(colon + 1);
    unsigned port = 0;
    auto [p, ec] =
        std::from_chars(port_text.data(), port_text.data() + port_text.size(), port);
    if (ec != std::errc{} || p != port_text.data() + port_text.size() ||
        port == 0 || port > 0xffff)
      return std::nullopt;
    u.port = static_cast<std::uint16_t>(port);
    authority = authority.substr(0, colon);
  }
  if (authority.empty()) return std::nullopt;
  u.host = authority;
  return u;
}

std::optional<Url> Url::parse(std::string_view text) {
  const auto view = UrlView::parse(text);
  if (!view) return std::nullopt;
  Url u;
  u.scheme = util::iequals(view->scheme, "https") ? "https" : "http";
  u.host = util::to_lower(view->host);
  u.port = view->port;
  u.path = view->path.empty() ? std::string_view("/") : view->path;
  return u;
}

Url Url::resolve(std::string_view location) const {
  if (const auto abs = Url::parse(location)) return *abs;
  Url u = *this;
  if (!location.empty() && location.front() == '/')
    u.path = std::string(location);
  return u;
}

std::string public_suffix(std::string_view host) {
  for (const auto suffix : kSuffixes) {
    if (host == suffix) return std::string(suffix);
    if (host.size() > suffix.size() && util::ends_with(host, suffix) &&
        host[host.size() - suffix.size() - 1] == '.')
      return std::string(suffix);
  }
  return {};
}

std::string registered_domain(std::string_view host) {
  const std::string suffix = public_suffix(host);
  if (suffix.empty() || host == suffix) return std::string(host);
  // The label immediately left of the suffix, plus the suffix.
  const std::string_view without =
      host.substr(0, host.size() - suffix.size() - 1);
  const std::size_t last_dot = without.rfind('.');
  const std::string_view label =
      last_dot == std::string_view::npos ? without : without.substr(last_dot + 1);
  return std::string(label) + "." + suffix;
}

bool domains_related(std::string_view host_a, std::string_view host_b) {
  const std::string ra = registered_domain(host_a);
  const std::string rb = registered_domain(host_b);
  if (ra == rb) return true;
  // Same registrable label, different public suffix?
  const std::string sa = public_suffix(ra);
  const std::string sb = public_suffix(rb);
  if (sa.empty() || sb.empty()) return false;
  const std::string_view la(ra.data(), ra.size() - sa.size());
  const std::string_view lb(rb.data(), rb.size() - sb.size());
  return !la.empty() && la == lb;
}

}  // namespace vpna::http
