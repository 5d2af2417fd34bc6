// Decoder verdict pins: every wire decoder's accept/reject verdict, and the
// re-encoded bytes of everything it accepts, over the seeded decoder corpus
// (random bytes, punctuated strings behind each format's magic, mutated
// valid encodings). Each decoder folds its verdicts into one FNV-1a hash;
// the pinned values were computed with the vector-splitting decoders, so a
// rewrite that accepts, rejects or re-encodes anything differently moves a
// hash.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>

#include "decoder_corpus.h"

namespace vpna {
namespace {

std::vector<std::string> pin_corpus() {
  std::vector<std::string> out = corpus::valid_frames();
  const auto frames = corpus::valid_frames();
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    util::Rng rng(seed);
    for (int i = 0; i < 200; ++i) out.push_back(corpus::random_bytes(rng, 400));
    for (int i = 0; i < 200; ++i) out.push_back(corpus::punctuated(rng, 60));
    util::Rng mrng(seed ^ 0xfeed);
    for (int i = 0; i < 100; ++i)
      for (const auto& frame : frames)
        out.push_back(corpus::mutate(mrng, frame));
  }
  return out;
}

// Incremental FNV-1a over (accepted?, length-prefixed re-encoding).
struct VerdictHash {
  std::uint64_t h = 1469598103934665603ULL;
  std::size_t accepted = 0;

  void byte(unsigned char c) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  void add(const std::optional<std::string>& reencoded) {
    byte(reencoded ? 1 : 0);
    if (!reencoded) return;
    ++accepted;
    for (int i = 0; i < 8; ++i)
      byte(static_cast<unsigned char>(reencoded->size() >> (8 * i)));
    for (const char c : *reencoded) byte(static_cast<unsigned char>(c));
  }
};

// True if `part` is shaped like a certificate ("CERT{" four ';'-fields
// "}") whose expired field is neither "0" nor "1". Certificate::decode
// used to read such a field as "not expired"; it now rejects it.
bool bad_expired_cert(std::string_view part) {
  if (!part.starts_with("CERT{") || !part.ends_with("}")) return false;
  const auto inner = part.substr(5, part.size() - 6);
  if (std::count(inner.begin(), inner.end(), ';') != 3) return false;
  const auto expired = inner.substr(inner.rfind(';') + 1);
  return expired != "0" && expired != "1";
}

bool any_bad_expired_cert(std::string_view chain) {
  while (true) {
    const auto bar = chain.find('|');
    if (bad_expired_cert(chain.substr(0, bar))) return true;
    if (bar == std::string_view::npos) return false;
    chain.remove_prefix(bar + 1);
  }
}

bool bad_expired_server_hello(std::string_view payload) {
  return payload.starts_with("TLSS|") &&
         any_bad_expired_cert(payload.substr(5));
}

template <typename T>
std::optional<std::string> reencode(const std::optional<T>& decoded) {
  if (!decoded) return std::nullopt;
  return decoded->encode();
}

struct Decoder {
  std::function<std::optional<std::string>(const std::string&)> run;
  // Inputs whose verdict changed on purpose; hashed out, asserted rejected.
  std::function<bool(const std::string&)> excluded;
};

std::map<std::string, Decoder> decoders() {
  const auto none = [](const std::string&) { return false; };
  return {
      {"DnsQueryView::parse",
       {[](const std::string& in) -> std::optional<std::string> {
          const auto q = dns::DnsQueryView::parse(in);
          if (!q) return std::nullopt;
          return dns::encode_query(q->id, q->type, q->name);
        },
        none}},
      {"DnsResponseView::parse",
       {[](const std::string& in) -> std::optional<std::string> {
          const auto r = dns::DnsResponseView::parse(in);
          if (!r) return std::nullopt;
          return dns::encode_response(r->id, *r);
        },
        none}},
      {"HttpRequest::decode",
       {[](const std::string& in) {
          return reencode(http::HttpRequest::decode(in));
        },
        none}},
      {"HttpResponse::decode",
       {[](const std::string& in) {
          return reencode(http::HttpResponse::decode(in));
        },
        none}},
      {"Certificate::decode",
       {[](const std::string& in) {
          return reencode(tlssim::Certificate::decode(in));
        },
        [](const std::string& in) { return bad_expired_cert(in); }}},
      {"CertChain::decode",
       {[](const std::string& in) {
          return reencode(tlssim::CertChain::decode(in));
        },
        [](const std::string& in) { return any_bad_expired_cert(in); }}},
      {"decode_server_hello",
       {[](const std::string& in) -> std::optional<std::string> {
          const auto chain = tlssim::decode_server_hello(in);
          if (!chain) return std::nullopt;
          return tlssim::encode_server_hello(*chain);
        },
        [](const std::string& in) { return bad_expired_server_hello(in); }}},
      {"decode_inner",
       {[](const std::string& in) -> std::optional<std::string> {
          auto p = netsim::decode_inner(in);
          if (!p) return std::nullopt;
          return netsim::encode_inner(std::move(*p));
        },
        none}},
  };
}

struct Pin {
  std::uint64_t hash;
  std::size_t accepted;
};

// Computed with the vector-splitting decoders (util::split in every text
// decoder), bad-expired certificate inputs excluded. The DNS rows run the
// view parsers and re-encode through encode_query/encode_response, which
// write the bytes the owning DNS decoders they replaced re-encoded.
const std::map<std::string, Pin>& pins() {
  static const std::map<std::string, Pin> kPins = {
      {"DnsQueryView::parse", {0x0cd7048208b159a1ULL, 602}},
      {"DnsResponseView::parse", {0xaa1f796137fd28e6ULL, 653}},
      {"HttpRequest::decode", {0x5c97ff42a11e962bULL, 619}},
      {"HttpResponse::decode", {0x55d14287a50f48d0ULL, 1089}},
      {"Certificate::decode", {0x680b7680cfd37b5eULL, 894}},
      {"CertChain::decode", {0xe159961d2730f7a9ULL, 1722}},
      {"decode_server_hello", {0xec6ce1014df48f28ULL, 693}},
      {"decode_inner", {0x52e29b8d7f6f0293ULL, 265}},
  };
  return kPins;
}

TEST(DecoderVerdicts, MatchPinnedHashes) {
  const auto inputs = pin_corpus();
  for (const auto& [name, decoder] : decoders()) {
    VerdictHash vh;
    std::size_t excluded = 0;
    for (const auto& in : inputs) {
      if (decoder.excluded(in)) {
        ++excluded;
        continue;
      }
      vh.add(decoder.run(in));
    }
    const auto& pin = pins().at(name);
    EXPECT_EQ(vh.h, pin.hash)
        << name << ": {0x" << std::hex << vh.h << std::dec << "ULL, "
        << vh.accepted << "}";
    EXPECT_EQ(vh.accepted, pin.accepted) << name;
    // A pin over a corpus its decoder never accepts would prove nothing.
    EXPECT_GE(vh.accepted, 50u) << name;
    (void)excluded;
  }
}

TEST(DecoderVerdicts, BadExpiredCertificatesAreRejected) {
  std::size_t seen = 0;
  for (const auto& in : pin_corpus()) {
    if (bad_expired_cert(in)) {
      ++seen;
      EXPECT_FALSE(tlssim::Certificate::decode(in)) << in;
    }
    if (any_bad_expired_cert(in)) {
      ++seen;
      EXPECT_FALSE(tlssim::CertChain::decode(in)) << in;
    }
    if (bad_expired_server_hello(in)) {
      ++seen;
      EXPECT_FALSE(tlssim::decode_server_hello(in)) << in;
    }
  }
  EXPECT_GT(seen, 0u);
}

}  // namespace
}  // namespace vpna
