// The simulator's packet model. A Packet is a flat value type carrying the
// fields the measurement tests actually observe: addresses, protocol, ports,
// TTL and an opaque payload. Encapsulation (VPN tunnels) is modelled by
// framing an inner packet into the payload of an outer one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "netsim/ip.h"

namespace vpna::netsim {

enum class Proto : std::uint8_t {
  kUdp,
  kTcp,
  kIcmpEcho,
  kIcmpEchoReply,
  kIcmpTimeExceeded,
};

[[nodiscard]] std::string_view proto_name(Proto p) noexcept;

struct Packet {
  IpAddr src;
  IpAddr dst;
  Proto proto = Proto::kUdp;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  int ttl = 64;
  std::string payload;

  [[nodiscard]] IpFamily family() const noexcept { return dst.family(); }

  // One-line rendering for capture dumps and test diagnostics.
  [[nodiscard]] std::string summary() const;
};

// Tunnel encapsulation: encode_inner() serializes an inner packet into the
// payload of an outer one; decode_inner() round-trips it exactly. The frame
// stands in for the ESP/OpenVPN framing a real tunnel would use: a fixed
// binary header, then the inner payload byte for byte.
//
//   offset  size  field
//        0     4  kTunnelMagic
//        4     1  src family (0 = IPv4, 1 = IPv6)
//        5    16  src address bytes (IPv4: the first 4, the rest zero)
//       21     1  dst family
//       22    16  dst address bytes
//       38     1  proto
//       39     2  src port        (util::put_le)
//       41     2  dst port
//       43     4  ttl, two's complement
//       47     4  payload length
//       51     n  payload
//
// decode_inner() rejects a frame with the wrong magic, a short header, a
// length that disagrees with the bytes present, proto > 4, ttl outside
// [0, 255], an unknown family byte or an IPv4 address with non-zero padding.
inline constexpr std::string_view kTunnelMagic{"\x7fTUN", 4};
inline constexpr std::size_t kTunnelHeaderSize = 51;

[[nodiscard]] std::string encode_inner(const Packet& inner);
[[nodiscard]] std::optional<Packet> decode_inner(std::string_view payload);

// True if `payload` is a tunnel frame, i.e. the packet is encapsulated
// traffic. Text payloads (DNS, HTTP, TLS) never start with the magic's
// DEL byte.
[[nodiscard]] inline bool is_tunnel_frame(std::string_view payload) noexcept {
  return payload.starts_with(kTunnelMagic);
}

// Well-known simulator port numbers.
inline constexpr std::uint16_t kPortDns = 53;
inline constexpr std::uint16_t kPortHttp = 80;
inline constexpr std::uint16_t kPortHttps = 443;
inline constexpr std::uint16_t kPortOpenVpn = 1194;
inline constexpr std::uint16_t kPortPptp = 1723;
inline constexpr std::uint16_t kPortIpsec = 500;
inline constexpr std::uint16_t kPortSstp = 4433;
inline constexpr std::uint16_t kPortSpeedTest = 5201;  // iperf3's default

}  // namespace vpna::netsim
