// Decoder robustness: every wire-format decoder in the library must
// survive arbitrary bytes — returning nullopt, never crashing or reading
// out of bounds. Inputs are seeded-random strings plus mutations of valid
// encodings (the harder case: almost-valid frames).
#include <gtest/gtest.h>

#include "http/url.h"
#include "decoder_corpus.h"

namespace vpna {
namespace {

using corpus::mutate;
using corpus::random_bytes;

class FuzzDecoders : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  // Exercise every decoder on one input; crashes/UB are the failure mode,
  // so the assertions are merely "it returned".
  static void feed(const std::string& input) {
    (void)netsim::decode_inner(input);
    (void)netsim::IpAddr::parse(input);
    (void)netsim::Cidr::parse(input);
    (void)dns::DnsQueryView::parse(input);
    if (const auto r = dns::DnsResponseView::parse(input)) {
      std::vector<netsim::IpAddr> addresses;
      std::vector<std::string> texts;
      r->append_addresses(addresses);
      r->append_texts(texts);
    }
    (void)http::HttpRequest::decode(input);
    (void)http::HttpResponse::decode(input);
    (void)http::Url::parse(input);
    (void)tlssim::Certificate::decode(input);
    (void)tlssim::CertChain::decode(input);
    (void)tlssim::decode_client_hello(input);
    (void)tlssim::decode_server_hello(input);
    (void)vpn::OvpnConfig::parse(input);
    SUCCEED();
  }
};

TEST_P(FuzzDecoders, RandomBytesNeverCrash) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) feed(random_bytes(rng, 400));
  for (int i = 0; i < 200; ++i) feed(corpus::punctuated(rng, 60));
}

TEST_P(FuzzDecoders, MutatedValidFramesNeverCrash) {
  util::Rng rng(GetParam() ^ 0xfeed);

  const auto frames = corpus::valid_frames();
  for (int i = 0; i < 100; ++i)
    for (const auto& frame : frames) feed(mutate(rng, frame));
}

TEST_P(FuzzDecoders, DecodedValidFramesReencodeStably) {
  // For inputs that DO decode, re-encoding and re-decoding must agree —
  // the "no silent mangling" property.
  util::Rng rng(GetParam() ^ 0xc0de);
  for (int i = 0; i < 100; ++i) {
    const auto input = random_bytes(rng, 200);
    if (const auto q = dns::DnsQueryView::parse(input)) {
      const auto encoded = dns::encode_query(q->id, q->type, q->name);
      const auto again = dns::DnsQueryView::parse(encoded);
      ASSERT_TRUE(again.has_value());
      EXPECT_EQ(again->name, dns::canonical_name(q->name));
      EXPECT_EQ(again->id, q->id);
    }
    if (const auto r = http::HttpResponse::decode(input)) {
      const auto again = http::HttpResponse::decode(r->encode());
      ASSERT_TRUE(again.has_value());
      EXPECT_EQ(again->status, r->status);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDecoders,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace vpna
