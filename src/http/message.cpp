#include "http/message.h"

#include <cctype>
#include <charconv>

#include "util/strings.h"

namespace vpna::http {

namespace {

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i])))
      return false;
  return true;
}

// A message is a head (start line, then header lines) and a body: the body
// is everything after the first blank line. A message that ends in a
// newline without a blank line has an empty body; any other message without
// a blank line is malformed.
struct Sections {
  std::vector<std::string_view> head_lines;
  std::string_view body;
};

std::optional<Sections> split_sections(std::string_view payload) {
  std::string_view head;
  std::string_view body;
  if (const auto sep = payload.find("\n\n"); sep != std::string_view::npos) {
    head = payload.substr(0, sep);
    body = payload.substr(sep + 2);
  } else if (payload.ends_with('\n')) {
    head = payload.substr(0, payload.size() - 1);
  } else {
    return std::nullopt;
  }
  return Sections{util::split(head, '\n'), body};
}

// Parses the "Name: value" lines after the start line; returns false on a
// line without a colon.
bool parse_headers(const std::vector<std::string_view>& head_lines,
                   std::vector<Header>& headers) {
  for (std::size_t i = 1; i < head_lines.size(); ++i) {
    const auto line = head_lines[i];
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) return false;
    auto value = line.substr(colon + 1);
    // Strip exactly one leading space if present (preserving any other
    // spacing quirks, which the proxy-detection test depends on).
    if (!value.empty() && value.front() == ' ') value.remove_prefix(1);
    headers.emplace_back(std::string(line.substr(0, colon)),
                         std::string(value));
  }
  return true;
}

}  // namespace

std::string_view reason_for_status(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 301: return "Moved Permanently";
    case 302: return "Found";
    case 303: return "See Other";
    case 307: return "Temporary Redirect";
    case 308: return "Permanent Redirect";
    case 400: return "Bad Request";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 451: return "Unavailable For Legal Reasons";
    case 500: return "Internal Server Error";
    case 502: return "Bad Gateway";
    default: return "Unknown";
  }
}

std::optional<std::string> HttpRequest::header(std::string_view name) const {
  for (const auto& [n, v] : headers)
    if (iequals(n, name)) return v;
  return std::nullopt;
}

void HttpRequest::set_header(std::string_view name, std::string_view value) {
  for (auto& [n, v] : headers) {
    if (iequals(n, name)) {
      v = std::string(value);
      return;
    }
  }
  headers.emplace_back(std::string(name), std::string(value));
}

std::string HttpRequest::encode() const {
  std::string s = method + " " + path + " HTTP/1.1\n";
  s += "Host: " + host + "\n";
  for (const auto& [n, v] : headers) s += n + ": " + v + "\n";
  s += "\n";
  s += body;
  return s;
}

std::optional<HttpRequest> HttpRequest::decode(std::string_view payload) {
  const auto sections = split_sections(payload);
  if (!sections) return std::nullopt;
  const auto& lines = sections->head_lines;
  const auto req_parts = util::split(lines[0], ' ');
  if (req_parts.size() != 3 || req_parts[2] != "HTTP/1.1") return std::nullopt;
  HttpRequest r;
  r.method = std::string(req_parts[0]);
  r.path = std::string(req_parts[1]);

  std::vector<Header> all;
  if (!parse_headers(lines, all)) return std::nullopt;
  for (auto& h : all) {
    if (iequals(h.first, "Host") && r.host.empty())
      r.host = std::move(h.second);
    else
      r.headers.push_back(std::move(h));
  }
  if (r.host.empty()) return std::nullopt;
  r.body = std::string(sections->body);
  return r;
}

std::optional<std::string> HttpResponse::header(std::string_view name) const {
  for (const auto& [n, v] : headers)
    if (iequals(n, name)) return v;
  return std::nullopt;
}

void HttpResponse::set_header(std::string_view name, std::string_view value) {
  for (auto& [n, v] : headers) {
    if (iequals(n, name)) {
      v = std::string(value);
      return;
    }
  }
  headers.emplace_back(std::string(name), std::string(value));
}

std::string HttpResponse::encode() const {
  std::string s = "HTTP/1.1 " + std::to_string(status) + " " + reason + "\n";
  for (const auto& [n, v] : headers) s += n + ": " + v + "\n";
  s += "\n";
  s += body;
  return s;
}

std::optional<HttpResponse> HttpResponse::decode(std::string_view payload) {
  const auto sections = split_sections(payload);
  if (!sections) return std::nullopt;
  constexpr std::string_view kVersion = "HTTP/1.1 ";
  const auto status_line = sections->head_lines[0];
  if (!util::starts_with(status_line, kVersion)) return std::nullopt;
  // "HTTP/1.1 <status>[ <reason>]": the reason is the rest of the line,
  // spaces and all.
  const auto rest = status_line.substr(kVersion.size());
  const std::size_t space = rest.find(' ');
  const auto st = rest.substr(0, space);
  int status = 0;
  auto [p, ec] = std::from_chars(st.data(), st.data() + st.size(), status);
  if (ec != std::errc{} || p != st.data() + st.size()) return std::nullopt;
  HttpResponse r;
  r.status = status;
  r.reason = std::string(space == std::string_view::npos
                             ? reason_for_status(status)
                             : rest.substr(space + 1));

  if (!parse_headers(sections->head_lines, r.headers)) return std::nullopt;
  r.body = std::string(sections->body);
  return r;
}

}  // namespace vpna::http
