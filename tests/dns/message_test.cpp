#include "dns/message.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace vpna::dns {
namespace {

TEST(CanonicalName, LowercasesAndStripsDot) {
  EXPECT_EQ(canonical_name("Example.COM."), "example.com");
  EXPECT_EQ(canonical_name("a.b"), "a.b");
  EXPECT_EQ(canonical_name(""), "");
}

TEST(InZone, ApexAndSubdomains) {
  EXPECT_TRUE(in_zone("example.com", "example.com"));
  EXPECT_TRUE(in_zone("www.example.com", "example.com"));
  EXPECT_TRUE(in_zone("a.b.example.com", "example.com"));
  EXPECT_FALSE(in_zone("badexample.com", "example.com"));
  EXPECT_FALSE(in_zone("example.com", "www.example.com"));
  EXPECT_FALSE(in_zone("example.org", "example.com"));
}

TEST(DnsQuery, EncodeDecodeRoundTrip) {
  const auto encoded =
      encode_query(12345, RrType::kAaaa, "probe.rdns.example.net");
  EXPECT_EQ(encoded, "DNSQ|12345|1|probe.rdns.example.net");
  const auto decoded = DnsQueryView::parse(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->id, 12345);
  EXPECT_EQ(decoded->type, RrType::kAaaa);
  EXPECT_EQ(decoded->name, "probe.rdns.example.net");
}

TEST(DnsQuery, DecodeCanonicalizesName) {
  // The view keeps the name as sent; its canonical form is the query name,
  // and the encoder folds a name into that form.
  const auto decoded = DnsQueryView::parse("DNSQ|7|0|WWW.Example.COM.");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->name, "WWW.Example.COM.");
  EXPECT_FALSE(is_canonical(decoded->name));
  EXPECT_EQ(canonical_name(decoded->name), "www.example.com");
  EXPECT_EQ(encode_query(decoded->id, decoded->type, decoded->name),
            "DNSQ|7|0|www.example.com");
}

TEST(DnsQuery, DecodeRejectsMalformed) {
  EXPECT_FALSE(DnsQueryView::parse(""));
  EXPECT_FALSE(DnsQueryView::parse("DNSR|1|0|x"));
  EXPECT_FALSE(DnsQueryView::parse("DNSQ|notanum|0|x"));
  EXPECT_FALSE(DnsQueryView::parse("DNSQ|1|9|x"));   // bad type
  EXPECT_FALSE(DnsQueryView::parse("DNSQ|1|0|"));    // empty name
  EXPECT_FALSE(DnsQueryView::parse("DNSQ|1|0|."));   // empty once canonical
  EXPECT_FALSE(DnsQueryView::parse("DNSQ|1|0"));     // missing field
}

TEST(DnsResponse, EncodeDecodeWithAddresses) {
  const auto wire = encode_response(99, RrType::kA, "example.com",
                                    Rcode::kNoError,
                                    {*netsim::IpAddr::parse("1.2.3.4"),
                                     *netsim::IpAddr::parse("5.6.7.8")},
                                    {});
  const auto decoded = DnsResponseView::parse(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->id, 99);
  EXPECT_EQ(decoded->name, "example.com");
  EXPECT_EQ(decoded->rcode, Rcode::kNoError);
  std::vector<netsim::IpAddr> addresses;
  decoded->append_addresses(addresses);
  ASSERT_EQ(addresses.size(), 2u);
  EXPECT_EQ(addresses[1].str(), "5.6.7.8");
}

TEST(DnsResponse, EncodeDecodeAaaa) {
  const auto wire =
      encode_response(3, RrType::kAaaa, "v6.example.com", Rcode::kNoError,
                      {*netsim::IpAddr::parse("2001:db8::5")}, {});
  const auto decoded = DnsResponseView::parse(wire);
  ASSERT_TRUE(decoded.has_value());
  std::vector<netsim::IpAddr> addresses;
  decoded->append_addresses(addresses);
  ASSERT_EQ(addresses.size(), 1u);
  EXPECT_TRUE(addresses[0].is_v6());
}

TEST(DnsResponse, EncodeDecodeErrorCodes) {
  for (const auto rc : {Rcode::kNxDomain, Rcode::kServFail, Rcode::kRefused}) {
    const auto wire = encode_response(1, RrType::kA, "x.com", rc, {}, {});
    const auto decoded = DnsResponseView::parse(wire);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->rcode, rc);
    EXPECT_TRUE(decoded->addresses.empty());
  }
}

TEST(DnsResponse, TxtRecords) {
  const auto wire = encode_response(4, RrType::kTxt, "probe.example",
                                    Rcode::kNoError, {},
                                    {"tag-abc", "tag-def"});
  const auto decoded = DnsResponseView::parse(wire);
  ASSERT_TRUE(decoded.has_value());
  std::vector<std::string> texts;
  decoded->append_texts(texts);
  ASSERT_EQ(texts.size(), 2u);
  EXPECT_EQ(texts[0], "tag-abc");
}

TEST(DnsResponse, DecodeRejectsMalformed) {
  EXPECT_FALSE(DnsResponseView::parse("DNSQ|1|0|x"));
  EXPECT_FALSE(DnsResponseView::parse("DNSR|1|0|x|9||"));        // bad rcode
  EXPECT_FALSE(DnsResponseView::parse("DNSR|1|0|x|0|bogusip|"));  // bad address
}

TEST(Names, EnumNameFunctions) {
  EXPECT_EQ(rrtype_name(RrType::kA), "A");
  EXPECT_EQ(rrtype_name(RrType::kAaaa), "AAAA");
  EXPECT_EQ(rrtype_name(RrType::kTxt), "TXT");
  EXPECT_EQ(rcode_name(Rcode::kNoError), "NOERROR");
  EXPECT_EQ(rcode_name(Rcode::kNxDomain), "NXDOMAIN");
}

}  // namespace
}  // namespace vpna::dns
