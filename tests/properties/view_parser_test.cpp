// One parser per message. The HTTP response view and the owning decoder
// built on it accept exactly the same payloads and give equal fields; each
// DNS view re-encodes what it accepts to a canonical message that parses
// back to the same fields. The inputs are seeded byte flips, inserts,
// erases and truncations of valid encodings (names in mixed case and with a
// trailing dot included), plus random strings behind each format's magic.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dns/message.h"
#include "http/message.h"
#include "util/rng.h"
#include "decoder_corpus.h"

namespace vpna {
namespace {

// One to four byte flips, inserts, erases or truncations.
std::string mutate(util::Rng& rng, std::string bytes) {
  const int edits = static_cast<int>(rng.uniform_int(1, 4));
  for (int e = 0; e < edits && !bytes.empty(); ++e) {
    const auto pos = rng.index(bytes.size());
    switch (rng.uniform_int(0, 3)) {
      case 0:
        bytes[pos] = static_cast<char>(rng.uniform_int(0, 255));
        break;
      case 1:
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                     static_cast<char>(rng.uniform_int(0, 255)));
        break;
      case 2:
        bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(pos));
        break;
      default:
        bytes.resize(pos);
        break;
    }
  }
  return bytes;
}

// Valid encodings, then each mutated many times, then punctuated strings.
std::vector<std::string> corpus_of(const std::vector<std::string>& valid,
                                   std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::string> out = valid;
  for (int i = 0; i < 400; ++i)
    for (const auto& v : valid) out.push_back(mutate(rng, v));
  for (int i = 0; i < 2000; ++i) out.push_back(corpus::punctuated(rng, 60));
  return out;
}

TEST(ViewParsers, HttpResponseViewMatchesDecode) {
  http::HttpResponse redirect;
  redirect.status = 301;
  redirect.reason = "Moved Permanently";
  redirect.headers = {{"Location", "https://example.com/"}, {"X-A", " b"}};
  redirect.body = "<html>\n\nbody</html>";
  http::HttpResponse page;
  page.headers = {{"Content-Type", "text/html"}, {"location", "lower"},
                  {"Location", "second"}};
  page.body = "<p>x</p>";
  const std::vector<std::string> valid = {
      redirect.encode(), page.encode(), "HTTP/1.1 204\n\n",
      "HTTP/1.1 200 OK\n", "HTTP/1.1 302 Found\nLocation:/x\n\n"};

  int accepted = 0;
  for (const auto& in : corpus_of(valid, 0x4850)) {
    const auto view = http::HttpResponseView::parse(in);
    const auto owned = http::HttpResponse::decode(in);
    ASSERT_EQ(view.has_value(), owned.has_value()) << in;
    if (!view) continue;
    ++accepted;
    EXPECT_EQ(view->status, owned->status);
    EXPECT_EQ(view->reason, owned->reason);
    EXPECT_EQ(view->body, owned->body);
    for (const auto& [name, value] : owned->headers)
      EXPECT_EQ(view->header(name), owned->header(name)) << in;
    EXPECT_EQ(view->header("Location"), owned->header("Location")) << in;
    EXPECT_FALSE(view->header("No-Such-Header").has_value());
  }
  EXPECT_GT(accepted, 300);
}

TEST(ViewParsers, DnsQueryViewReencodesCanonically) {
  const std::vector<std::string> valid = {
      dns::encode_query(77, dns::RrType::kAaaa, "www.example.com"),
      "DNSQ|1|0|WWW.Example.COM.", "DNSQ|65535|2|a.", "DNSQ|1|0|."};

  int accepted = 0;
  for (const auto& in : corpus_of(valid, 0x5155)) {
    const auto view = dns::DnsQueryView::parse(in);
    if (!view) continue;
    ++accepted;
    // The query a client sends encodes the canonical name directly, and
    // parses back to the same query.
    const auto encoded = dns::encode_query(view->id, view->type, view->name);
    const auto again = dns::DnsQueryView::parse(encoded);
    ASSERT_TRUE(again.has_value()) << in;
    EXPECT_EQ(again->id, view->id);
    EXPECT_EQ(again->type, view->type);
    EXPECT_EQ(again->name, dns::canonical_name(view->name)) << in;
    EXPECT_TRUE(dns::is_canonical(again->name)) << in;
    EXPECT_EQ(dns::is_canonical(view->name), view->name == again->name);
  }
  EXPECT_GT(accepted, 300);
}

TEST(ViewParsers, DnsResponseViewReencodesCanonically) {
  const std::vector<std::string> valid = {
      dns::encode_response(3, dns::RrType::kA, "a.example.com",
                           dns::Rcode::kNoError,
                           {netsim::IpAddr::v4(1, 2, 3, 4)}, {}),
      dns::encode_response(65535, dns::RrType::kTxt, "T.Example.COM.",
                           dns::Rcode::kRefused,
                           {netsim::IpAddr::v4(9, 9, 9, 9),
                            *netsim::IpAddr::parse("2001:db8::1")},
                           {"v=spf1", "", "tag"}),
      "DNSR|7|0|x|1||", "DNSR|8|1|y.|0|010.0.0.1,::|t"};

  int accepted = 0;
  for (const auto& in : corpus_of(valid, 0x5253)) {
    const auto view = dns::DnsResponseView::parse(in);
    if (!view) continue;
    ++accepted;
    std::vector<netsim::IpAddr> addresses;
    view->append_addresses(addresses);
    std::vector<std::string> texts;
    view->append_texts(texts);
    // The recursive resolver's re-encode under a new id equals encoding the
    // parsed fields under the canonical name.
    const auto reencoded = dns::encode_response(4242, *view);
    EXPECT_EQ(reencoded,
              dns::encode_response(4242, view->type,
                                   dns::canonical_name(view->name),
                                   view->rcode, addresses, texts))
        << in;
    const auto again = dns::DnsResponseView::parse(reencoded);
    ASSERT_TRUE(again.has_value()) << in;
    EXPECT_EQ(again->id, 4242);
    EXPECT_EQ(again->type, view->type);
    EXPECT_EQ(again->rcode, view->rcode);
    EXPECT_EQ(again->name, dns::canonical_name(view->name)) << in;
    std::vector<netsim::IpAddr> again_addresses;
    again->append_addresses(again_addresses);
    EXPECT_EQ(again_addresses, addresses) << in;
  }
  EXPECT_GT(accepted, 100);
}

}  // namespace
}  // namespace vpna
