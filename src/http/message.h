// HTTP/1.1 message model with a line-based wire encoding. Header *identity*
// (exact names, casing, order and spacing) is preserved through
// serialization, because the header-based transparent-proxy detection test
// (§6.2.1) works by comparing the bytes a client sent against the bytes a
// reflection server received.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vpna::http {

using Header = std::pair<std::string, std::string>;

// First header with the given name (case-insensitive), or nullptr.
[[nodiscard]] const std::string* find_header(std::span<const Header> headers,
                                             std::string_view name);

// A request parsed in place: every field views the payload, so it must not
// outlive it. Servers that read only the host and path use this; the owning
// HttpRequest::decode is built on it, so both accept exactly the same
// payloads.
struct HttpRequestView {
  std::string_view method;
  std::string_view path;
  std::string_view host;  // the first non-empty Host header value
  // The "Name: value" lines after the request line, '\n'-separated, Host
  // lines included; empty when there are none.
  std::string_view header_lines;
  std::string_view body;

  static std::optional<HttpRequestView> parse(std::string_view payload);
};

struct HttpRequest {
  std::string method = "GET";
  std::string host;           // Host header target
  std::string path = "/";
  std::vector<Header> headers;  // excluding Host (kept separately)
  std::string body;

  // Finds the first header with the given name (case-insensitive).
  [[nodiscard]] std::optional<std::string> header(std::string_view name) const;
  void set_header(std::string_view name, std::string_view value);

  // Exact serialized form ("GET /path HTTP/1.1\nHost: ...\n...").
  [[nodiscard]] std::string encode() const;
  static std::optional<HttpRequest> decode(std::string_view payload);
};

[[nodiscard]] constexpr bool is_redirect(int status) noexcept {
  return status == 301 || status == 302 || status == 303 || status == 307 ||
         status == 308;
}

// A response parsed in place, as HttpRequestView is: every field views the
// payload. The HTTP client reads replies through it; the owning
// HttpResponse::decode is built on it, so both accept exactly the same
// payloads.
struct HttpResponseView {
  int status = 0;
  std::string_view reason;
  // The "Name: value" lines after the status line, '\n'-separated; empty
  // when there are none.
  std::string_view header_lines;
  std::string_view body;

  // The value of the first header with the given name (case-insensitive).
  [[nodiscard]] std::optional<std::string_view> header(
      std::string_view name) const;

  static std::optional<HttpResponseView> parse(std::string_view payload);
};

struct HttpResponse {
  int status = 200;
  std::string reason = "OK";
  std::vector<Header> headers;
  std::string body;

  [[nodiscard]] std::optional<std::string> header(std::string_view name) const;
  void set_header(std::string_view name, std::string_view value);

  [[nodiscard]] bool is_redirect() const noexcept {
    return http::is_redirect(status);
  }

  [[nodiscard]] std::string encode() const;
  static std::optional<HttpResponse> decode(std::string_view payload);
};

// HttpRequest::encode / HttpResponse::encode over borrowed fields, so
// clients and servers can encode without first copying headers and bodies
// into a message object. One reserved string, no temporaries.
[[nodiscard]] std::string encode_request(std::string_view method,
                                         std::string_view host,
                                         std::string_view path,
                                         std::span<const Header> headers,
                                         std::string_view body);
[[nodiscard]] std::string encode_response(int status, std::string_view reason,
                                          std::span<const Header> headers,
                                          std::string_view body);

[[nodiscard]] std::string_view reason_for_status(int status) noexcept;

}  // namespace vpna::http
