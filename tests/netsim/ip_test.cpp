#include "netsim/ip.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "util/rng.h"

namespace vpna::netsim {
namespace {

TEST(IpAddr, V4Construction) {
  const auto a = IpAddr::v4(8, 8, 8, 8);
  EXPECT_TRUE(a.is_v4());
  EXPECT_EQ(a.str(), "8.8.8.8");
  EXPECT_EQ(a.v4_value(), 0x08080808u);
  EXPECT_EQ(IpAddr::v4(0xC0A80001u).str(), "192.168.0.1");
}

TEST(IpAddr, V4Parse) {
  const auto a = IpAddr::parse("203.0.113.7");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->str(), "203.0.113.7");
}

TEST(IpAddr, V4ParseRejectsMalformed) {
  EXPECT_FALSE(IpAddr::parse("1.2.3"));
  EXPECT_FALSE(IpAddr::parse("1.2.3.4.5"));
  EXPECT_FALSE(IpAddr::parse("256.1.1.1"));
  EXPECT_FALSE(IpAddr::parse("a.b.c.d"));
  EXPECT_FALSE(IpAddr::parse(""));
  EXPECT_FALSE(IpAddr::parse("1..2.3"));
}

TEST(IpAddr, V6GroupsAndString) {
  const auto a = IpAddr::v6_groups({0x2001, 0xdb8, 0, 0, 0, 0, 0, 1});
  EXPECT_TRUE(a.is_v6());
  EXPECT_EQ(a.str(), "2001:db8::1");
}

TEST(IpAddr, V6ParseRoundTrip) {
  for (const char* text :
       {"2001:db8::1", "::1", "::", "fe80::aaaa:bbbb", "1:2:3:4:5:6:7:8"}) {
    const auto a = IpAddr::parse(text);
    ASSERT_TRUE(a.has_value()) << text;
    const auto b = IpAddr::parse(a->str());
    ASSERT_TRUE(b.has_value()) << a->str();
    EXPECT_EQ(*a, *b) << text;
  }
}

// append_to and str() give the same canonical text, append_to after what
// the buffer already holds.
TEST(IpAddr, AppendToAndStrTable) {
  struct Case {
    IpAddr addr;
    const char* want;
  };
  const Case cases[] = {
      {IpAddr::v4(0, 0, 0, 0), "0.0.0.0"},
      {IpAddr::v4(255, 255, 255, 255), "255.255.255.255"},
      {IpAddr::v4(8, 8, 8, 8), "8.8.8.8"},
      {IpAddr::v4(10, 0, 100, 9), "10.0.100.9"},
      {IpAddr::v6_groups({0x2001, 0xdb8, 0, 0, 0, 0, 0, 1}), "2001:db8::1"},
      {IpAddr::v6_groups({0, 0, 0, 0, 0, 0, 0, 1}), "::1"},
      {IpAddr::v6_groups({0, 0, 0, 0, 0, 0, 0, 0}), "::"},
      {IpAddr::v6_groups({0xfe80, 0, 0, 0, 0, 0, 0xaaaa, 0xbbbb}),
       "fe80::aaaa:bbbb"},
      {IpAddr::v6_groups({1, 2, 3, 4, 5, 6, 7, 8}), "1:2:3:4:5:6:7:8"},
      {IpAddr::v6_groups({1, 0, 0, 0, 0, 0, 0, 0}), "1::"},
      {IpAddr::v6_groups({1, 2, 3, 4, 5, 6, 7, 0}), "1:2:3:4:5:6:7:0"},
      {IpAddr::v6_groups({0, 2, 3, 4, 5, 6, 7, 8}), "0:2:3:4:5:6:7:8"},
      {IpAddr::v6_groups({0xffff, 0, 0, 0, 0, 0, 0, 1}), "ffff::1"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(c.addr.str(), c.want);
    std::string out = "x|";
    c.addr.append_to(out);
    EXPECT_EQ(out, std::string("x|") + c.want);
  }
}

// parse(str(a)) == a, and equal addresses hash alike, over a seeded sweep
// of v4 and v6 addresses (v6 with random zero runs, so every compression
// position occurs).
TEST(IpAddr, SeededStrParseRoundTrip) {
  util::Rng rng(20181031);
  for (int i = 0; i < 5000; ++i) {
    IpAddr a;
    if (rng.index(2) == 0) {
      a = IpAddr::v4(static_cast<std::uint32_t>(rng.next()));
    } else {
      std::array<std::uint16_t, 8> g{};
      for (auto& group : g)
        group = rng.index(3) == 0 ? 0 : static_cast<std::uint16_t>(rng.next());
      a = IpAddr::v6_groups(g);
    }
    const auto back = IpAddr::parse(a.str());
    ASSERT_TRUE(back.has_value()) << a.str();
    EXPECT_EQ(*back, a) << a.str();
    EXPECT_EQ(std::hash<IpAddr>{}(*back), std::hash<IpAddr>{}(a));
  }
}

// Equality reads the family too: a v4 address never equals the v6 address
// with the same leading bytes.
TEST(IpAddr, EqualityDistinguishesFamilies) {
  const auto v4 = IpAddr::v4(1, 2, 3, 4);
  std::array<std::uint8_t, 16> bytes{};
  bytes[0] = 1;
  bytes[1] = 2;
  bytes[2] = 3;
  bytes[3] = 4;
  const auto v6 = IpAddr::v6(bytes);
  EXPECT_EQ(v4.bytes(), v6.bytes());
  EXPECT_NE(v4, v6);
  EXPECT_EQ(v4, IpAddr::v4(1, 2, 3, 4));
  EXPECT_NE(v4, IpAddr::v4(1, 2, 3, 5));
}

TEST(IpAddr, V6ParseRejectsMalformed) {
  EXPECT_FALSE(IpAddr::parse("1:2:3"));
  EXPECT_FALSE(IpAddr::parse("::1::2"));
  EXPECT_FALSE(IpAddr::parse("1:2:3:4:5:6:7:8:9"));
  EXPECT_FALSE(IpAddr::parse("gggg::1"));
}

TEST(IpAddr, UnspecifiedDetection) {
  EXPECT_TRUE(IpAddr().is_unspecified());
  EXPECT_TRUE(IpAddr::parse("::")->is_unspecified());
  EXPECT_FALSE(IpAddr::v4(1, 0, 0, 0).is_unspecified());
}

TEST(IpAddr, V4ValueThrowsOnV6) {
  const auto a = IpAddr::v6_groups({1, 0, 0, 0, 0, 0, 0, 0});
  EXPECT_THROW((void)a.v4_value(), std::logic_error);
}

TEST(IpAddr, OrderingIsFamilyMajor) {
  const auto v4 = IpAddr::v4(255, 255, 255, 255);
  const auto v6 = IpAddr::parse("::1");
  EXPECT_LT(v4, *v6);
}

TEST(Cidr, MasksNetworkAddress) {
  const Cidr c(IpAddr::v4(10, 1, 2, 3), 8);
  EXPECT_EQ(c.network().str(), "10.0.0.0");
  EXPECT_EQ(c.str(), "10.0.0.0/8");
}

TEST(Cidr, ContainsMatchesPrefix) {
  const auto c = Cidr::parse("192.168.0.0/16");
  ASSERT_TRUE(c.has_value());
  EXPECT_TRUE(c->contains(IpAddr::v4(192, 168, 42, 1)));
  EXPECT_FALSE(c->contains(IpAddr::v4(192, 169, 0, 1)));
  EXPECT_FALSE(c->contains(*IpAddr::parse("2001:db8::1")));
}

TEST(Cidr, NonOctetAlignedPrefix) {
  const auto c = Cidr::parse("10.0.0.0/10");
  ASSERT_TRUE(c.has_value());
  EXPECT_TRUE(c->contains(IpAddr::v4(10, 63, 255, 255)));
  EXPECT_FALSE(c->contains(IpAddr::v4(10, 64, 0, 0)));
}

TEST(Cidr, V6Prefix) {
  const auto c = Cidr::parse("2001:db8::/32");
  ASSERT_TRUE(c.has_value());
  EXPECT_TRUE(c->contains(*IpAddr::parse("2001:db8:1234::1")));
  EXPECT_FALSE(c->contains(*IpAddr::parse("2001:db9::1")));
}

TEST(Cidr, ParseRejectsMalformed) {
  EXPECT_FALSE(Cidr::parse("10.0.0.0"));
  EXPECT_FALSE(Cidr::parse("10.0.0.0/33"));
  EXPECT_FALSE(Cidr::parse("10.0.0.0/-1"));
  EXPECT_FALSE(Cidr::parse("2001:db8::/129"));
  EXPECT_FALSE(Cidr::parse("notanip/8"));
}

// Accept/reject table for the address parsers. `want` is the canonical
// text of the parsed value, or nullptr for a rejected input. The rows pin
// the exact input sets (leading zeros accepted, signs and whitespace
// rejected), so a parser rewrite cannot widen or narrow them unnoticed.
struct ParseCase {
  const char* text;
  const char* want;
};

TEST(IpAddr, ParseAcceptRejectTable) {
  const ParseCase cases[] = {
      {"1.2.3.4", "1.2.3.4"},
      {"01.2.3.4", "1.2.3.4"},
      {"001.002.003.004", "1.2.3.4"},
      {"255.255.255.255", "255.255.255.255"},
      {"0.0.0.0", "0.0.0.0"},
      {"1.2.3", nullptr},
      {"1.2.3.4.", nullptr},
      {".1.2.3.4", nullptr},
      {"1.2.3.4.5", nullptr},
      {"+1.2.3.4", nullptr},
      {"-1.2.3.4", nullptr},
      {" 1.2.3.4", nullptr},
      {"1.2.3.4 ", nullptr},
      {"256.0.0.1", nullptr},
      {"1.2.3.0004", nullptr},
      {"1..2.3", nullptr},
      {"1.2.3.x", nullptr},
      {"", nullptr},
      {".", nullptr},
      {"::", "::"},
      {"::1", "::1"},
      {"1::", "1::"},
      {"FFFF::1", "ffff::1"},
      {"0:0:0:0:0:0:0:0", "::"},
      {"1:2:3:4:5:6:7:8", "1:2:3:4:5:6:7:8"},
      {"1:2:3:4:5:6:7::", "1:2:3:4:5:6:7:0"},
      {"::2:3:4:5:6:7:8", "0:2:3:4:5:6:7:8"},
      {"2001:0db8:0000::0001", "2001:db8::1"},
      {"1::2::3", nullptr},
      {"1:::2", nullptr},
      {":::", nullptr},
      {"1:2:3:4:5:6:7:8:9", nullptr},
      {"1:2:3:4:5:6:7:8::", nullptr},
      {"::1:2:3:4:5:6:7:8", nullptr},
      {"1:2:3:4:5:6:7", nullptr},
      {":1::2", nullptr},
      {"1::2:", nullptr},
      {"12345::1", nullptr},
      {"0x1::1", nullptr},
      {"+1::1", nullptr},
      {"gggg::1", nullptr},
      {"::1.2.3.4", nullptr},
      {"1.2.3.4:80", nullptr},
      {" ::1", nullptr},
  };
  for (const auto& c : cases) {
    const auto a = IpAddr::parse(c.text);
    if (c.want == nullptr) {
      EXPECT_FALSE(a.has_value()) << '"' << c.text << '"';
    } else {
      ASSERT_TRUE(a.has_value()) << '"' << c.text << '"';
      EXPECT_EQ(a->str(), c.want) << '"' << c.text << '"';
    }
  }
}

TEST(Cidr, ParseAcceptRejectTable) {
  const ParseCase cases[] = {
      {"10.0.0.0/8", "10.0.0.0/8"},
      {"10.0.0.1/8", "10.0.0.0/8"},
      {"10.0.0.0/08", "10.0.0.0/8"},
      {"01.2.3.4/32", "1.2.3.4/32"},
      {"0.0.0.0/0", "0.0.0.0/0"},
      {"::/0", "::/0"},
      {"2001:db8::1/32", "2001:db8::/32"},
      {"2001:db8::/128", "2001:db8::/128"},
      {"10.0.0.0", nullptr},
      {"10.0.0.0/", nullptr},
      {"/8", nullptr},
      {"10.0.0.0/33", nullptr},
      {"10.0.0.0/-1", nullptr},
      {"10.0.0.0/+8", nullptr},
      {"10.0.0.0/ 8", nullptr},
      {"10.0.0.0/8 ", nullptr},
      {"10.0.0.0/8/8", nullptr},
      {"1.2.3/24", nullptr},
      {"1.2.3.4./24", nullptr},
      {"256.0.0.1/8", nullptr},
      {"1..2.3/8", nullptr},
      {"2001:db8::/129", nullptr},
      {"1::2::3/64", nullptr},
      {"1:2:3:4:5:6:7:8:9/64", nullptr},
      {"", nullptr},
  };
  for (const auto& c : cases) {
    const auto cidr = Cidr::parse(c.text);
    if (c.want == nullptr) {
      EXPECT_FALSE(cidr.has_value()) << '"' << c.text << '"';
    } else {
      ASSERT_TRUE(cidr.has_value()) << '"' << c.text << '"';
      EXPECT_EQ(cidr->str(), c.want) << '"' << c.text << '"';
    }
  }
}

TEST(Cidr, HostAt) {
  const auto c = Cidr::parse("10.0.0.0/24");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->host_at(5).str(), "10.0.0.5");
  EXPECT_THROW((void)c->host_at(256), std::out_of_range);
}

TEST(Cidr, HostAtV6Throws) {
  const auto c = Cidr::parse("2001:db8::/32");
  ASSERT_TRUE(c.has_value());
  EXPECT_THROW((void)c->host_at(1), std::logic_error);
}

TEST(Cidr, ZeroPrefixContainsEverything) {
  const Cidr all(IpAddr::v4(0, 0, 0, 0), 0);
  EXPECT_TRUE(all.contains(IpAddr::v4(1, 2, 3, 4)));
  EXPECT_TRUE(all.contains(IpAddr::v4(255, 255, 255, 255)));
}

TEST(Cidr, EqualAfterMasking) {
  const Cidr a(IpAddr::v4(10, 0, 0, 1), 24);
  const Cidr b(IpAddr::v4(10, 0, 0, 200), 24);
  EXPECT_EQ(a, b);
}

TEST(EnclosingBlock, V4SlashTwentyFour) {
  const auto b = enclosing_block(IpAddr::v4(82, 102, 27, 99));
  EXPECT_EQ(b.str(), "82.102.27.0/24");
}

TEST(EnclosingBlock, V6SlashFortyEight) {
  const auto b = enclosing_block(*IpAddr::parse("2a0e:100:aaaa::1"));
  EXPECT_EQ(b.prefix_len(), 48);
}

TEST(IpAddrHash, DistinguishesFamilies) {
  const std::hash<IpAddr> h;
  const auto v4 = IpAddr::v4(0, 0, 0, 1);
  const auto v6 = IpAddr::parse("::1");
  EXPECT_NE(h(v4), h(*v6));
}

}  // namespace
}  // namespace vpna::netsim
