#include "netsim/packet.h"

#include <gtest/gtest.h>

namespace vpna::netsim {
namespace {

Packet sample_packet() {
  Packet p;
  p.src = IpAddr::v4(10, 8, 0, 2);
  p.dst = IpAddr::v4(8, 8, 8, 8);
  p.proto = Proto::kUdp;
  p.src_port = 50000;
  p.dst_port = 53;
  p.ttl = 61;
  p.payload = "DNSQ|1|0|example.com";
  return p;
}

TEST(Packet, SummaryMentionsEndpoints) {
  const auto s = sample_packet().summary();
  EXPECT_NE(s.find("10.8.0.2"), std::string::npos);
  EXPECT_NE(s.find("8.8.8.8"), std::string::npos);
  EXPECT_NE(s.find("udp"), std::string::npos);
}

TEST(TunnelEncoding, RoundTripsExactly) {
  const auto p = sample_packet();
  const auto encoded = encode_inner(p);
  const auto decoded = decode_inner(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->src, p.src);
  EXPECT_EQ(decoded->dst, p.dst);
  EXPECT_EQ(decoded->proto, p.proto);
  EXPECT_EQ(decoded->src_port, p.src_port);
  EXPECT_EQ(decoded->dst_port, p.dst_port);
  EXPECT_EQ(decoded->ttl, p.ttl);
  EXPECT_EQ(decoded->payload, p.payload);
}

TEST(TunnelEncoding, PayloadWithDelimiters) {
  auto p = sample_packet();
  p.payload = "a|b|c||d\nwith|pipes";
  const auto decoded = decode_inner(encode_inner(p));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->payload, p.payload);
}

TEST(TunnelEncoding, EmptyPayload) {
  auto p = sample_packet();
  p.payload.clear();
  const auto decoded = decode_inner(encode_inner(p));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->payload.empty());
}

TEST(TunnelEncoding, NestedEncapsulation) {
  // A tunnel within a tunnel (VPN-over-VPN) round-trips.
  const auto inner = sample_packet();
  Packet mid;
  mid.src = IpAddr::v4(1, 1, 1, 1);
  mid.dst = IpAddr::v4(2, 2, 2, 2);
  mid.proto = Proto::kUdp;
  mid.payload = encode_inner(inner);
  const auto outer = encode_inner(mid);
  const auto mid2 = decode_inner(outer);
  ASSERT_TRUE(mid2.has_value());
  const auto inner2 = decode_inner(mid2->payload);
  ASSERT_TRUE(inner2.has_value());
  EXPECT_EQ(inner2->payload, inner.payload);
}

TEST(TunnelEncoding, RejectsGarbage) {
  EXPECT_FALSE(decode_inner(""));
  EXPECT_FALSE(decode_inner("not a tunnel frame"));
  EXPECT_FALSE(decode_inner(std::string(kTunnelMagic) + "only|three|fields"));
  // Truncated payload (length field larger than remaining bytes).
  auto enc = encode_inner(sample_packet());
  enc.pop_back();
  EXPECT_FALSE(decode_inner(enc));
}

// Byte offsets of the two address fields (family byte, then 16 bytes).
constexpr std::size_t kSrcAt = 4;
constexpr std::size_t kDstAt = 21;

void set_u32(std::string& frame, std::size_t at, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i)
    frame[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

TEST(TunnelEncoding, RejectsCorruptAddresses) {
  const auto enc = encode_inner(sample_packet());  // v4 -> v4
  ASSERT_TRUE(decode_inner(enc));
  for (const std::size_t at : {kSrcAt, kDstAt}) {
    // Every family byte other than v4 (0) and v6 (1).
    for (int family = 2; family < 256; ++family) {
      auto bad = enc;
      bad[at] = static_cast<char>(family);
      EXPECT_FALSE(decode_inner(bad)) << "at " << at << " family " << family;
    }
    // Every padding byte of a v4 address.
    for (std::size_t i = 4; i < 16; ++i) {
      auto bad = enc;
      bad[at + 1 + i] = 1;
      EXPECT_FALSE(decode_inner(bad)) << "at " << at << " byte " << i;
    }
  }
}

// One row per rule decode_inner enforces; each breaks one field of a
// frame that decodes.
TEST(TunnelEncoding, RejectionTable) {
  const auto valid = encode_inner(sample_packet());
  ASSERT_EQ(valid.size(), kTunnelHeaderSize + sample_packet().payload.size());
  ASSERT_TRUE(decode_inner(valid));
  const auto with_byte = [&valid](std::size_t at, int value) {
    auto f = valid;
    f[at] = static_cast<char>(value);
    return f;
  };
  const auto with_u32 = [&valid](std::size_t at, std::uint32_t value) {
    auto f = valid;
    set_u32(f, at, value);
    return f;
  };
  auto negative_ttl = sample_packet();
  negative_ttl.ttl = -1;
  auto wide_ttl = sample_packet();
  wide_ttl.ttl = 256 + 61;  // would read back as 61 from a one-byte field
  auto v6 = sample_packet();
  v6.src = *IpAddr::parse("2001:db8::1");
  const auto v6_frame = encode_inner(v6);
  const struct {
    const char* rule;
    std::string frame;
  } cases[] = {
      {"bad magic (first byte)", with_byte(0, 'T')},
      {"bad magic (last byte)", with_byte(3, 'X')},
      {"empty", ""},
      {"magic only", std::string(kTunnelMagic)},
      {"truncated header", valid.substr(0, kTunnelHeaderSize - 1)},
      {"length > bytes present", valid.substr(0, valid.size() - 1)},
      {"length < bytes present", valid + "x"},
      {"length field off by one", with_u32(47, 21)},
      {"length field huge", with_u32(47, 0xffffffffu)},
      {"proto 5", with_byte(38, 5)},
      {"proto 255", with_byte(38, 255)},
      {"ttl 256", with_u32(43, 256)},
      {"ttl 2^31", with_u32(43, 0x80000000u)},
      {"negative ttl", encode_inner(negative_ttl)},
      {"ttl above 255", encode_inner(wide_ttl)},
      {"unknown src family", with_byte(kSrcAt, 2)},
      {"unknown dst family", with_byte(kDstAt, 255)},
      {"v4 src with non-zero byte 4", with_byte(kSrcAt + 1 + 4, 1)},
      {"v4 dst with non-zero byte 15", with_byte(kDstAt + 1 + 15, 0x80)},
      {"v6 src relabelled v4", [&v6_frame] {
         auto f = v6_frame;
         f[kSrcAt] = 0;
         return f;
       }()},
  };
  for (const auto& c : cases) EXPECT_FALSE(decode_inner(c.frame)) << c.rule;

  // The edges of each accepted range still decode.
  EXPECT_TRUE(decode_inner(with_byte(38, 4)));
  EXPECT_TRUE(decode_inner(with_u32(43, 0)));
  EXPECT_TRUE(decode_inner(with_u32(43, 255)));
  EXPECT_TRUE(decode_inner(v6_frame));
}

void expect_same_packet(const Packet& got, const Packet& want) {
  EXPECT_EQ(got.src, want.src);
  EXPECT_EQ(got.dst, want.dst);
  EXPECT_EQ(got.proto, want.proto);
  EXPECT_EQ(got.src_port, want.src_port);
  EXPECT_EQ(got.dst_port, want.dst_port);
  EXPECT_EQ(got.ttl, want.ttl);
  EXPECT_EQ(got.payload, want.payload);
}

TEST(TunnelEncoding, MixedFamilyRoundTrips) {
  auto v4_to_v6 = sample_packet();
  v4_to_v6.dst = *IpAddr::parse("2a0e:100::80");
  v4_to_v6.proto = Proto::kIcmpTimeExceeded;
  v4_to_v6.ttl = 255;
  auto v6_to_v4 = sample_packet();
  v6_to_v4.src = *IpAddr::parse("fe80::aaaa:bbbb");
  v6_to_v4.ttl = 0;
  v6_to_v4.src_port = 0xffff;
  for (const auto& p : {v4_to_v6, v6_to_v4}) {
    const auto decoded = decode_inner(encode_inner(p));
    ASSERT_TRUE(decoded.has_value()) << p.summary();
    expect_same_packet(*decoded, p);
    EXPECT_EQ(decoded->src.family(), p.src.family());
    EXPECT_EQ(decoded->dst.family(), p.dst.family());
  }
}

TEST(TunnelEncoding, NestedV6InV4RoundTrips) {
  Packet inner;
  inner.src = *IpAddr::parse("2001:db8::10");
  inner.dst = *IpAddr::parse("2a0e:100:aaaa::1");
  inner.proto = Proto::kTcp;
  inner.src_port = 40000;
  inner.dst_port = 443;
  inner.ttl = 7;
  inner.payload = std::string("binary\0\x7fTUN\xff|\n", 14);
  Packet outer;
  outer.src = IpAddr::v4(10, 8, 0, 2);
  outer.dst = IpAddr::v4(45, 0, 0, 1);
  outer.proto = Proto::kUdp;
  outer.src_port = 49999;
  outer.dst_port = kPortOpenVpn;
  outer.payload = encode_inner(inner);
  const auto frame = encode_inner(outer);
  EXPECT_EQ(frame.size(), 2 * kTunnelHeaderSize + inner.payload.size());
  const auto outer2 = decode_inner(frame);
  ASSERT_TRUE(outer2.has_value());
  expect_same_packet(*outer2, outer);
  EXPECT_TRUE(is_tunnel_frame(outer2->payload));
  const auto inner2 = decode_inner(outer2->payload);
  ASSERT_TRUE(inner2.has_value());
  expect_same_packet(*inner2, inner);
}

TEST(TunnelEncoding, FramePredicate) {
  EXPECT_TRUE(is_tunnel_frame(encode_inner(sample_packet())));
  EXPECT_TRUE(is_tunnel_frame(kTunnelMagic));
  EXPECT_FALSE(is_tunnel_frame(sample_packet().payload));
  EXPECT_FALSE(is_tunnel_frame(""));
  EXPECT_FALSE(is_tunnel_frame(kTunnelMagic.substr(0, 3)));
  EXPECT_FALSE(is_tunnel_frame("GET / HTTP/1.1\nHost: a\n\n"));
}

TEST(ProtoName, AllValuesNamed) {
  EXPECT_EQ(proto_name(Proto::kUdp), "udp");
  EXPECT_EQ(proto_name(Proto::kTcp), "tcp");
  EXPECT_EQ(proto_name(Proto::kIcmpEcho), "icmp-echo");
  EXPECT_EQ(proto_name(Proto::kIcmpEchoReply), "icmp-echo-reply");
  EXPECT_EQ(proto_name(Proto::kIcmpTimeExceeded), "icmp-time-exceeded");
}

TEST(TunnelEncoding, V6InnerPacket) {
  Packet p;
  p.src = *IpAddr::parse("2001:db8::1");
  p.dst = *IpAddr::parse("2001:db8::2");
  p.proto = Proto::kTcp;
  p.payload = "x";
  const auto decoded = decode_inner(encode_inner(p));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->src.is_v6());
  EXPECT_EQ(decoded->dst.str(), "2001:db8::2");
}

}  // namespace
}  // namespace vpna::netsim
