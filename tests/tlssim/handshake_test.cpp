#include "tlssim/handshake.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace vpna::tlssim {
namespace {

// A memo hit is the chain a fresh decode gives, and the same shared object
// as the first decode of those bytes.
TEST(ChainMemo, HitEqualsFreshDecode) {
  ChainMemo memo;
  const std::string hello = encode_server_hello(issue_chain("x.com", "CA", 5));
  const auto first = memo.decode_server_hello(hello);
  const auto again = memo.decode_server_hello(hello);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first, again);
  EXPECT_EQ(memo.size(), 1u);
  const auto fresh = decode_server_hello(hello);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(first->encode(), fresh->encode());
  EXPECT_EQ(first->leaf()->key_fingerprint, fresh->leaf()->key_fingerprint);
}

// Interception re-issues a chain per handshake with a fresh serial: each is
// its own entry with its own fingerprint.
TEST(ChainMemo, DistinctSerialsGetDistinctEntries) {
  ChainMemo memo;
  const auto a = memo.decode_server_hello(
      encode_server_hello(issue_chain("x.com", "MITM CA", 1)));
  const auto b = memo.decode_server_hello(
      encode_server_hello(issue_chain("x.com", "MITM CA", 2)));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_NE(a->leaf()->key_fingerprint, b->leaf()->key_fingerprint);
  EXPECT_EQ(memo.size(), 2u);
}

// Malformed bytes fail exactly as decode_server_hello fails, are never
// kept, and never come back as a chain; accepted mutations equal a fresh
// decode.
TEST(ChainMemo, MalformedBytesNeverComeBackAsAChain) {
  ChainMemo memo;
  const std::string valid = encode_server_hello(issue_chain("x.com", "CA", 9));
  util::Rng rng(77);
  std::size_t rejected = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string bytes = valid;
    const auto pos = rng.index(bytes.size());
    switch (rng.uniform_int(0, 3)) {
      case 0: bytes[pos] = static_cast<char>(rng.uniform_int(0, 255)); break;
      case 1: bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(pos), '|'); break;
      case 2: bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(pos)); break;
      default: bytes.resize(pos); break;
    }
    const auto fresh = decode_server_hello(bytes);
    const auto size_before = memo.size();
    const auto shared = memo.decode_server_hello(bytes);
    ASSERT_EQ(shared != nullptr, fresh.has_value()) << bytes;
    if (!fresh) {
      ++rejected;
      EXPECT_EQ(memo.size(), size_before);
      EXPECT_EQ(memo.decode_server_hello(bytes), nullptr);
      continue;
    }
    EXPECT_EQ(shared->encode(), fresh->encode());
  }
  EXPECT_GT(rejected, 100u);
}

TEST(WireForms, ClientHelloRoundTrip) {
  const auto payload = encode_client_hello("www.example.com");
  const auto sni = decode_client_hello(payload);
  ASSERT_TRUE(sni.has_value());
  EXPECT_EQ(*sni, "www.example.com");
  EXPECT_FALSE(decode_client_hello("GET / HTTP/1.1").has_value());
}

TEST(WireForms, ServerHelloRoundTrip) {
  const auto chain = issue_chain("x.com", "CA", 5);
  const auto decoded = decode_server_hello(encode_server_hello(chain));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->leaf()->key_fingerprint, chain.leaf()->key_fingerprint);
  EXPECT_FALSE(decode_server_hello("TLSH|x").has_value());
}

class HandshakeFixture : public ::testing::Test {
 protected:
  HandshakeFixture() : net_(clock_, util::Rng(4), 0.0), client_("c"), server_("s") {
    const auto r0 = net_.add_router("r0");
    const auto r1 = net_.add_router("r1");
    net_.add_link(r0, r1, 5.0);
    client_.add_interface("eth0", netsim::IpAddr::v4(71, 80, 0, 10), std::nullopt);
    client_.routes().add(netsim::Route{*netsim::Cidr::parse("0.0.0.0/0"),
                                       "eth0", std::nullopt, 0});
    net_.attach_host(client_, r0, 0.5);
    server_.add_interface("eth0", netsim::IpAddr::v4(45, 0, 0, 10), std::nullopt);
    server_.routes().add(netsim::Route{*netsim::Cidr::parse("0.0.0.0/0"),
                                       "eth0", std::nullopt, 0});
    net_.attach_host(server_, r1, 0.5);

    store_.trust("SimTrust Root CA");
    terminator_ = std::make_shared<TlsTerminator>(nullptr);
    terminator_->set_chain(
        "www.site.com", issue_chain("www.site.com", "SimTrust Root CA", 1));
    server_.bind_service(netsim::Proto::kTcp, netsim::kPortHttps, terminator_);
  }

  util::SimClock clock_;
  netsim::Network net_;
  netsim::Host client_;
  netsim::Host server_;
  CaStore store_;
  ChainMemo memo_;
  std::shared_ptr<TlsTerminator> terminator_;
};

TEST_F(HandshakeFixture, SuccessfulHandshakeValidates) {
  const auto hs = tls_handshake(net_, client_, netsim::IpAddr::v4(45, 0, 0, 10),
                                "www.site.com", store_, memo_);
  ASSERT_TRUE(hs.completed());
  EXPECT_EQ(hs.validation, ValidationStatus::kValid);
  EXPECT_GT(hs.rtt_ms, 0.0);
}

TEST_F(HandshakeFixture, UnknownSniFailsHandshake) {
  const auto hs = tls_handshake(net_, client_, netsim::IpAddr::v4(45, 0, 0, 10),
                                "other.com", store_, memo_);
  EXPECT_FALSE(hs.completed());
  EXPECT_EQ(hs.error.kind, transport::ErrorKind::kTransport);
  EXPECT_EQ(hs.error.status, netsim::TransactStatus::kNoReply);
}

TEST_F(HandshakeFixture, InterceptionChainFailsValidation) {
  terminator_->set_chain("www.site.com",
                         issue_chain("www.site.com", "Intercept CA", 9));
  const auto hs = tls_handshake(net_, client_, netsim::IpAddr::v4(45, 0, 0, 10),
                                "www.site.com", store_, memo_);
  ASSERT_TRUE(hs.completed());
  EXPECT_EQ(hs.validation, ValidationStatus::kUntrustedRoot);
  EXPECT_EQ(hs.chain->root()->issuer, "Intercept CA");
}

TEST_F(HandshakeFixture, HandshakeRttExceedsPlainExchange) {
  // TLS costs extra flights: its RTT must exceed a bare ping.
  const auto ping = net_.ping(client_, netsim::IpAddr::v4(45, 0, 0, 10));
  ASSERT_TRUE(ping.has_value());
  const auto hs = tls_handshake(net_, client_, netsim::IpAddr::v4(45, 0, 0, 10),
                                "www.site.com", store_, memo_);
  ASSERT_TRUE(hs.completed());
  EXPECT_GT(hs.rtt_ms, *ping * 1.9);
}

TEST_F(HandshakeFixture, WildcardChainServesSubdomains) {
  terminator_->set_chain("*.site.com",
                         issue_chain("*.site.com", "SimTrust Root CA", 2));
  const auto hs = tls_handshake(net_, client_, netsim::IpAddr::v4(45, 0, 0, 10),
                                "api.site.com", store_, memo_);
  ASSERT_TRUE(hs.completed());
  EXPECT_EQ(hs.validation, ValidationStatus::kValid);
}

TEST_F(HandshakeFixture, AppDataDelegation) {
  auto app = std::make_shared<netsim::LambdaService>(
      [](netsim::ServiceContext&) -> std::optional<std::string> {
        return "app-data-response";
      });
  auto term = std::make_shared<TlsTerminator>(app);
  term->set_chain("www.site.com",
                  issue_chain("www.site.com", "SimTrust Root CA", 1));
  server_.bind_service(netsim::Proto::kTcp, netsim::kPortHttps, term);

  netsim::Packet p;
  p.dst = netsim::IpAddr::v4(45, 0, 0, 10);
  p.proto = netsim::Proto::kTcp;
  p.dst_port = netsim::kPortHttps;
  p.payload = "anything non-TLSH";
  const auto res = net_.transact(client_, std::move(p));
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.reply, "app-data-response");
}

TEST_F(HandshakeFixture, UnreachableServer) {
  const auto hs = tls_handshake(net_, client_, netsim::IpAddr::v4(9, 9, 9, 9),
                                "www.site.com", store_, memo_);
  EXPECT_FALSE(hs.completed());
}

}  // namespace
}  // namespace vpna::tlssim
