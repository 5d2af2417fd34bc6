#include "http/message.h"

#include <algorithm>
#include <cctype>
#include <charconv>

#include "netsim/packet.h"
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
// a blank line is malformed. The head never ends in a newline, so every
// header line is non-empty.
struct Sections {
  std::string_view start_line;
  std::string_view header_lines;  // empty: no header lines
  std::string_view body;
};

std::optional<Sections> split_sections(std::string_view payload) {
  std::string_view head;
  Sections out;
  if (const auto sep = payload.find("\n\n"); sep != std::string_view::npos) {
    head = payload.substr(0, sep);
    out.body = payload.substr(sep + 2);
  } else if (payload.ends_with('\n')) {
    head = payload.substr(0, payload.size() - 1);
  } else {
    return std::nullopt;
  }
  const std::size_t eol = head.find('\n');
  out.start_line = head.substr(0, eol);
  if (eol != std::string_view::npos) out.header_lines = head.substr(eol + 1);
  return out;
}

// Calls visit(name, value) for each "Name: value" line; returns false on a
// line without a colon. Exactly one leading space is stripped from the
// value (any other spacing quirk is kept: the proxy-detection test depends
// on it).
template <typename Visit>
bool for_each_header(std::string_view header_lines, Visit&& visit) {
  if (header_lines.empty()) return true;
  return util::for_each_field(header_lines, '\n', [&](std::string_view line) {
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) return false;
    auto value = line.substr(colon + 1);
    if (!value.empty() && value.front() == ' ') value.remove_prefix(1);
    visit(line.substr(0, colon), value);
    return true;
  });
}

std::size_t line_count(std::string_view header_lines) {
  if (header_lines.empty()) return 0;
  return 1 + static_cast<std::size_t>(
                 std::count(header_lines.begin(), header_lines.end(), '\n'));
}

void set_header_in(std::vector<Header>& headers, std::string_view name,
                   std::string_view value) {
  for (auto& [n, v] : headers) {
    if (iequals(n, name)) {
      v = std::string(value);
      return;
    }
  }
  headers.emplace_back(std::string(name), std::string(value));
}

std::optional<std::string> copy_of(const std::string* value) {
  if (value == nullptr) return std::nullopt;
  return *value;
}

std::size_t headers_size(std::span<const Header> headers) {
  std::size_t n = 0;
  for (const auto& [name, value] : headers) n += name.size() + value.size() + 3;
  return n;
}

void append_headers(std::string& out, std::span<const Header> headers) {
  for (const auto& [name, value] : headers) {
    out += name;
    out += ": ";
    out += value;
    out += '\n';
  }
}

}  // namespace

const std::string* find_header(std::span<const Header> headers,
                               std::string_view name) {
  for (const auto& [n, v] : headers)
    if (iequals(n, name)) return &v;
  return nullptr;
}

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
  return copy_of(find_header(headers, name));
}

void HttpRequest::set_header(std::string_view name, std::string_view value) {
  set_header_in(headers, name, value);
}

std::string encode_request(std::string_view method, std::string_view host,
                           std::string_view path,
                           std::span<const Header> headers,
                           std::string_view body) {
  constexpr std::string_view kVersion = " HTTP/1.1\nHost: ";
  std::string s;
  s.reserve(method.size() + 1 + path.size() + kVersion.size() + host.size() +
            2 + headers_size(headers) + body.size() + netsim::kPayloadHeadroom);
  s += method;
  s += ' ';
  s += path;
  s += kVersion;
  s += host;
  s += '\n';
  append_headers(s, headers);
  s += '\n';
  s += body;
  return s;
}

std::string HttpRequest::encode() const {
  return encode_request(method, host, path, headers, body);
}

std::optional<HttpRequestView> HttpRequestView::parse(
    std::string_view payload) {
  const auto sections = split_sections(payload);
  if (!sections) return std::nullopt;
  const auto request_line = util::split_exact<3>(sections->start_line, ' ');
  if (!request_line || (*request_line)[2] != "HTTP/1.1") return std::nullopt;
  HttpRequestView r;
  r.method = (*request_line)[0];
  r.path = (*request_line)[1];
  const bool well_formed = for_each_header(
      sections->header_lines, [&](std::string_view name, std::string_view value) {
        if (r.host.empty() && iequals(name, "Host")) r.host = value;
      });
  if (!well_formed || r.host.empty()) return std::nullopt;
  r.header_lines = sections->header_lines;
  r.body = sections->body;
  return r;
}

std::optional<HttpRequest> HttpRequest::decode(std::string_view payload) {
  const auto view = HttpRequestView::parse(payload);
  if (!view) return std::nullopt;
  HttpRequest r;
  r.method = std::string(view->method);
  r.path = std::string(view->path);
  r.host = std::string(view->host);
  r.headers.reserve(line_count(view->header_lines));
  // Host lines up to and including the one that named the host are the
  // host, not headers; any later Host line is an ordinary header.
  bool host_seen = false;
  for_each_header(view->header_lines,
                  [&](std::string_view name, std::string_view value) {
                    if (!host_seen && iequals(name, "Host")) {
                      host_seen = !value.empty();
                      return;
                    }
                    r.headers.emplace_back(std::string(name),
                                           std::string(value));
                  });
  r.body = std::string(view->body);
  return r;
}

std::optional<std::string> HttpResponse::header(std::string_view name) const {
  return copy_of(find_header(headers, name));
}

void HttpResponse::set_header(std::string_view name, std::string_view value) {
  set_header_in(headers, name, value);
}

std::string encode_response(int status, std::string_view reason,
                            std::span<const Header> headers,
                            std::string_view body) {
  char code[16];
  const auto [code_end, ec] = std::to_chars(code, code + sizeof code, status);
  (void)ec;
  const std::string_view code_text(code, static_cast<std::size_t>(code_end - code));
  constexpr std::string_view kVersion = "HTTP/1.1 ";
  std::string s;
  s.reserve(kVersion.size() + code_text.size() + 1 + reason.size() + 2 +
            headers_size(headers) + body.size() + netsim::kPayloadHeadroom);
  s += kVersion;
  s += code_text;
  s += ' ';
  s += reason;
  s += '\n';
  append_headers(s, headers);
  s += '\n';
  s += body;
  return s;
}

std::string HttpResponse::encode() const {
  return encode_response(status, reason, headers, body);
}

std::optional<HttpResponse> HttpResponse::decode(std::string_view payload) {
  const auto sections = split_sections(payload);
  if (!sections) return std::nullopt;
  constexpr std::string_view kVersion = "HTTP/1.1 ";
  const auto status_line = sections->start_line;
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

  r.headers.reserve(line_count(sections->header_lines));
  const bool well_formed = for_each_header(
      sections->header_lines, [&](std::string_view name, std::string_view value) {
        r.headers.emplace_back(std::string(name), std::string(value));
      });
  if (!well_formed) return std::nullopt;
  r.body = std::string(sections->body);
  return r;
}

}  // namespace vpna::http
