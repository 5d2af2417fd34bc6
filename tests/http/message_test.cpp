#include "http/message.h"

#include <gtest/gtest.h>

namespace vpna::http {
namespace {

HttpRequest sample_request() {
  HttpRequest r;
  r.method = "GET";
  r.host = "example.com";
  r.path = "/index";
  r.headers = {{"User-Agent", "probe/1.0"},
               {"Accept", "text/html"},
               {"X-Probe-Marker", "leave-intact-7719"}};
  return r;
}

TEST(HttpRequest, EncodeDecodeRoundTrip) {
  const auto r = sample_request();
  const auto decoded = HttpRequest::decode(r.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->method, "GET");
  EXPECT_EQ(decoded->host, "example.com");
  EXPECT_EQ(decoded->path, "/index");
  ASSERT_EQ(decoded->headers.size(), 3u);
  EXPECT_EQ(decoded->headers[0].first, "User-Agent");
}

TEST(HttpRequest, EncodingIsByteStableUnderRoundTrip) {
  // The proxy-detection test depends on encode(decode(x)) == x for
  // well-formed requests.
  const auto encoded = sample_request().encode();
  const auto decoded = HttpRequest::decode(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->encode(), encoded);
}

TEST(HttpRequest, HeaderLookupCaseInsensitive) {
  const auto r = sample_request();
  EXPECT_EQ(r.header("user-agent"), "probe/1.0");
  EXPECT_EQ(r.header("USER-AGENT"), "probe/1.0");
  EXPECT_FALSE(r.header("Cookie").has_value());
}

TEST(HttpRequest, SetHeaderReplacesOrAppends) {
  auto r = sample_request();
  r.set_header("Accept", "*/*");
  EXPECT_EQ(r.header("Accept"), "*/*");
  EXPECT_EQ(r.headers.size(), 3u);
  r.set_header("Cookie", "a=1");
  EXPECT_EQ(r.headers.size(), 4u);
}

TEST(HttpRequest, BodyPreserved) {
  auto r = sample_request();
  r.method = "POST";
  r.body = "line1\nline2";
  const auto decoded = HttpRequest::decode(r.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->body, "line1\nline2");
}

TEST(HttpRequest, DecodeRejectsMalformed) {
  EXPECT_FALSE(HttpRequest::decode(""));
  EXPECT_FALSE(HttpRequest::decode("GET /\n\n"));            // bad request line
  EXPECT_FALSE(HttpRequest::decode("GET / HTTP/1.0\n\n"));   // wrong version
  EXPECT_FALSE(HttpRequest::decode("GET / HTTP/1.1\n\n"));   // no Host
  EXPECT_FALSE(HttpRequest::decode("GET / HTTP/1.1\nHost: x.com"));  // no blank
}

TEST(HttpResponse, EncodeDecodeRoundTrip) {
  HttpResponse r;
  r.status = 302;
  r.reason = "Found";
  r.headers = {{"Location", "http://blocked.example/page"}};
  r.body = "<html>moved</html>";
  const auto decoded = HttpResponse::decode(r.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->status, 302);
  EXPECT_TRUE(decoded->is_redirect());
  EXPECT_EQ(decoded->header("Location"), "http://blocked.example/page");
  EXPECT_EQ(decoded->body, "<html>moved</html>");
}

TEST(HttpResponse, RedirectStatusClassification) {
  for (int code : {301, 302, 303, 307, 308}) {
    HttpResponse r;
    r.status = code;
    EXPECT_TRUE(r.is_redirect()) << code;
  }
  for (int code : {200, 204, 400, 403, 404, 500}) {
    HttpResponse r;
    r.status = code;
    EXPECT_FALSE(r.is_redirect()) << code;
  }
}

TEST(HttpResponse, MultiWordReasonSurvives) {
  HttpResponse r;
  r.status = 451;
  r.reason = "Unavailable For Legal Reasons";
  const auto decoded = HttpResponse::decode(r.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->reason, "Unavailable For Legal Reasons");
}

TEST(HttpResponse, DecodeRejectsMalformed) {
  EXPECT_FALSE(HttpResponse::decode(""));
  EXPECT_FALSE(HttpResponse::decode("HTTP/1.1\n\n"));
  EXPECT_FALSE(HttpResponse::decode("HTTP/1.1 abc OK\n\n"));
  EXPECT_FALSE(HttpResponse::decode("GET / HTTP/1.1\nHost: x\n\n"));
}

// Decode tables: each row is a raw payload and what decode must return —
// nullopt, or the fields (the body byte for byte). They pin where the
// header block ends and that the body is everything after the first blank
// line, blank lines and trailing newlines included.
TEST(HttpRequest, DecodeTable) {
  struct Case {
    std::string payload;
    bool ok;
    std::string host;
    std::size_t headers;
    std::string body;
  };
  const Case cases[] = {
      {"GET / HTTP/1.1\nHost: a\n\n", true, "a", 0, ""},
      {"GET / HTTP/1.1\nHost: a\n", true, "a", 0, ""},
      {"GET / HTTP/1.1\nHost: a\n\nbody", true, "a", 0, "body"},
      {"GET / HTTP/1.1\nHost: a\n\nbody\n", true, "a", 0, "body\n"},
      {"GET / HTTP/1.1\nHost: a\n\none\n\nthree", true, "a", 0,
       "one\n\nthree"},
      {"GET / HTTP/1.1\nHost: a\n\n\nlead", true, "a", 0, "\nlead"},
      {"GET / HTTP/1.1\nHost: a\n\n\n\n", true, "a", 0, "\n\n"},
      {"POST /p HTTP/1.1\nhost: a\nX: 1\nHost: b\n\nk: v\n", true, "a", 2,
       "k: v\n"},
      {"GET / HTTP/1.1\n\nHost: a\n", false, "", 0, ""},
      {"GET / HTTP/1.1\nHost: a", false, "", 0, ""},
      {"GET / HTTP/1.1\nHost: a\nbad header\n\n", false, "", 0, ""},
      {"GET  / HTTP/1.1\nHost: a\n\n", false, "", 0, ""},
      {"\n\nGET / HTTP/1.1\nHost: a\n\n", false, "", 0, ""},
      {"GET / HTTP/1.1", false, "", 0, ""},
      {"\n", false, "", 0, ""},
  };
  for (const auto& c : cases) {
    const auto r = HttpRequest::decode(c.payload);
    ASSERT_EQ(r.has_value(), c.ok) << c.payload;
    if (!r) continue;
    EXPECT_EQ(r->host, c.host) << c.payload;
    EXPECT_EQ(r->headers.size(), c.headers) << c.payload;
    EXPECT_EQ(r->body, c.body) << c.payload;
  }
}

TEST(HttpResponse, DecodeTable) {
  struct Case {
    std::string payload;
    bool ok;
    int status;
    std::string reason;
    std::string body;
  };
  const Case cases[] = {
      {"HTTP/1.1 200 OK\n\n", true, 200, "OK", ""},
      {"HTTP/1.1 200 OK\n", true, 200, "OK", ""},
      {"HTTP/1.1 200\n\n", true, 200, "OK", ""},
      {"HTTP/1.1 404 Not  Found \n\n", true, 404, "Not  Found ", ""},
      {"HTTP/1.1 200 OK\nA: b\n\n<p>\n\n</p>", true, 200, "OK",
       "<p>\n\n</p>"},
      {"HTTP/1.1 200 OK\nA: b\n\nline\n", true, 200, "OK", "line\n"},
      {"HTTP/1.1 200 OK\n\n\n\n", true, 200, "OK", "\n\n"},
      {"HTTP/1.1 200 OK\n\nHTTP/1.1 500 X\n\n", true, 200, "OK",
       "HTTP/1.1 500 X\n\n"},
      {"HTTP/1.1 200 OK", false, 0, "", ""},
      {"HTTP/1.1 200 OK\nA: b", false, 0, "", ""},
      {"HTTP/1.1 200 OK\nno colon\n\n", false, 0, "", ""},
      {"HTTP/1.1  200 OK\n\n", false, 0, "", ""},
      {"HTTP/1.1 2x0 OK\n\n", false, 0, "", ""},
      {"HTTP/1.0 200 OK\n\n", false, 0, "", ""},
      {"\nHTTP/1.1 200 OK\n\n", false, 0, "", ""},
  };
  for (const auto& c : cases) {
    const auto r = HttpResponse::decode(c.payload);
    ASSERT_EQ(r.has_value(), c.ok) << c.payload;
    if (!r) continue;
    EXPECT_EQ(r->status, c.status) << c.payload;
    EXPECT_EQ(r->reason, c.reason) << c.payload;
    EXPECT_EQ(r->body, c.body) << c.payload;
  }
}

TEST(HttpResponse, HeaderValueKeepsAllButOneLeadingSpace) {
  const auto r = HttpResponse::decode("HTTP/1.1 200 OK\nA:  two\nB:x\n\n");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->header("A"), " two");
  EXPECT_EQ(r->header("B"), "x");
}

TEST(ReasonForStatus, CommonCodes) {
  EXPECT_EQ(reason_for_status(200), "OK");
  EXPECT_EQ(reason_for_status(403), "Forbidden");
  EXPECT_EQ(reason_for_status(302), "Found");
  EXPECT_EQ(reason_for_status(999), "Unknown");
}

TEST(HttpResponse, EmptyBodyStaysEmpty) {
  HttpResponse r;
  r.status = 200;
  const auto decoded = HttpResponse::decode(r.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->body.empty());
}

}  // namespace
}  // namespace vpna::http
