#include "tlssim/cert.h"

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/strings.h"

namespace vpna::tlssim {
namespace {

TEST(Certificate, HostnameMatchExact) {
  Certificate c;
  c.subject = "example.com";
  EXPECT_TRUE(c.matches_host("example.com"));
  EXPECT_FALSE(c.matches_host("www.example.com"));
  EXPECT_FALSE(c.matches_host("other.com"));
}

TEST(Certificate, WildcardMatchesOneLabel) {
  Certificate c;
  c.subject = "*.example.com";
  EXPECT_TRUE(c.matches_host("www.example.com"));
  EXPECT_TRUE(c.matches_host("api.example.com"));
  EXPECT_FALSE(c.matches_host("example.com"));
  EXPECT_FALSE(c.matches_host("a.b.example.com"));
}

TEST(Certificate, EncodeDecodeRoundTrip) {
  Certificate c;
  c.subject = "site.net";
  c.issuer = "SimTrust Root CA";
  c.key_fingerprint = "fp:0123456789abcdef";
  c.expired = true;
  const auto decoded = Certificate::decode(c.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->subject, c.subject);
  EXPECT_EQ(decoded->issuer, c.issuer);
  EXPECT_EQ(decoded->key_fingerprint, c.key_fingerprint);
  EXPECT_TRUE(decoded->expired);
}

TEST(Certificate, DecodeRejectsMalformed) {
  EXPECT_FALSE(Certificate::decode(""));
  EXPECT_FALSE(Certificate::decode("CERT{a;b}"));
  EXPECT_FALSE(Certificate::decode("NOPE{a;b;c;0}"));
  // The expired field is "0" or "1"; anything else is malformed.
  EXPECT_FALSE(Certificate::decode("CERT{a;b;c;7}"));
  EXPECT_FALSE(Certificate::decode("CERT{a;b;c;}"));
  EXPECT_TRUE(Certificate::decode("CERT{a;b;c;0}"));
  EXPECT_TRUE(Certificate::decode("CERT{a;b;c;1}"));
}

TEST(CertChain, EncodeDecodeRoundTrip) {
  const auto chain = issue_chain("www.site.com", "SimTrust Root CA", 7);
  const auto decoded = CertChain::decode(chain.encode());
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->certs.size(), 2u);
  EXPECT_EQ(decoded->leaf()->subject, "www.site.com");
  EXPECT_EQ(decoded->root()->subject, "SimTrust Root CA");
  EXPECT_TRUE(decoded->root()->self_signed());
}

TEST(IssueChain, FingerprintStablePerSerial) {
  const auto a = issue_chain("x.com", "CA", 1);
  const auto b = issue_chain("x.com", "CA", 1);
  const auto c = issue_chain("x.com", "CA", 2);
  EXPECT_EQ(a.leaf()->key_fingerprint, b.leaf()->key_fingerprint);
  EXPECT_NE(a.leaf()->key_fingerprint, c.leaf()->key_fingerprint);
}

// The issued fields are pinned to their printf form: FNV-1a over
// "host|ca" mixed with the serial, and over the CA name for the root.
TEST(IssueChain, FieldsMatchTheirPrintfForm) {
  for (const std::uint64_t serial : {0ULL, 1ULL, 7ULL, 123456789ULL}) {
    const auto chain = issue_chain("tls-portal-5.com", "SimTrust Root CA", serial);
    ASSERT_EQ(chain.certs.size(), 2u);
    const auto leaf_fp = util::format(
        "fp:%016llx",
        static_cast<unsigned long long>(
            util::fnv1a("tls-portal-5.com|SimTrust Root CA") ^
            (serial * 0x9e3779b97f4a7c15ULL)));
    const auto root_fp = util::format(
        "fp:%016llx",
        static_cast<unsigned long long>(util::fnv1a("SimTrust Root CA")));
    EXPECT_EQ(chain.certs[0].subject, "tls-portal-5.com");
    EXPECT_EQ(chain.certs[0].issuer, "SimTrust Root CA");
    EXPECT_EQ(chain.certs[0].key_fingerprint, leaf_fp);
    EXPECT_EQ(chain.certs[1].subject, "SimTrust Root CA");
    EXPECT_EQ(chain.certs[1].issuer, "SimTrust Root CA");
    EXPECT_EQ(chain.certs[1].key_fingerprint, root_fp);
    EXPECT_FALSE(chain.certs[0].expired || chain.certs[1].expired);
  }
}

TEST(IssueChain, DifferentCaDifferentFingerprint) {
  const auto a = issue_chain("x.com", "CA-1", 1);
  const auto b = issue_chain("x.com", "CA-2", 1);
  EXPECT_NE(a.leaf()->key_fingerprint, b.leaf()->key_fingerprint);
  EXPECT_EQ(a.leaf()->subject, b.leaf()->subject);
}

class CaStoreFixture : public ::testing::Test {
 protected:
  CaStoreFixture() { store_.trust("SimTrust Root CA"); }
  CaStore store_;
};

TEST_F(CaStoreFixture, ValidChain) {
  const auto chain = issue_chain("www.site.com", "SimTrust Root CA", 1);
  EXPECT_EQ(store_.validate(chain, "www.site.com"), ValidationStatus::kValid);
}

TEST_F(CaStoreFixture, UntrustedRootDetected) {
  // Exactly what a VPN-operated interception CA looks like to a client that
  // hasn't installed the VPN's root.
  const auto mitm = issue_chain("www.site.com", "EvilVPN CA", 1);
  EXPECT_EQ(store_.validate(mitm, "www.site.com"),
            ValidationStatus::kUntrustedRoot);
}

TEST_F(CaStoreFixture, HostnameMismatchDetected) {
  const auto chain = issue_chain("www.site.com", "SimTrust Root CA", 1);
  EXPECT_EQ(store_.validate(chain, "other.com"),
            ValidationStatus::kHostnameMismatch);
}

TEST_F(CaStoreFixture, EmptyChainRejected) {
  EXPECT_EQ(store_.validate(CertChain{}, "x.com"),
            ValidationStatus::kEmptyChain);
}

TEST_F(CaStoreFixture, BrokenChainRejected) {
  auto chain = issue_chain("www.site.com", "SimTrust Root CA", 1);
  chain.certs[0].issuer = "Somebody Else";  // leaf no longer links to root
  EXPECT_EQ(store_.validate(chain, "www.site.com"),
            ValidationStatus::kBrokenChain);
}

TEST_F(CaStoreFixture, ExpiredCertRejected) {
  auto chain = issue_chain("www.site.com", "SimTrust Root CA", 1);
  chain.certs[0].expired = true;
  EXPECT_EQ(store_.validate(chain, "www.site.com"), ValidationStatus::kExpired);
}

TEST_F(CaStoreFixture, TrustIsIdempotent) {
  store_.trust("SimTrust Root CA");
  EXPECT_TRUE(store_.is_trusted("SimTrust Root CA"));
  EXPECT_FALSE(store_.is_trusted("Unknown CA"));
}

TEST(ValidationName, AllStatusesNamed) {
  EXPECT_EQ(validation_name(ValidationStatus::kValid), "valid");
  EXPECT_EQ(validation_name(ValidationStatus::kUntrustedRoot), "untrusted-root");
  EXPECT_EQ(validation_name(ValidationStatus::kHostnameMismatch),
            "hostname-mismatch");
}

}  // namespace
}  // namespace vpna::tlssim
