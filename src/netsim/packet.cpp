#include "netsim/packet.h"

#include <array>
#include <cstring>

#include "util/le_bytes.h"
#include "util/strings.h"

namespace vpna::netsim {

std::string_view proto_name(Proto p) noexcept {
  switch (p) {
    case Proto::kUdp:
      return "udp";
    case Proto::kTcp:
      return "tcp";
    case Proto::kIcmpEcho:
      return "icmp-echo";
    case Proto::kIcmpEchoReply:
      return "icmp-echo-reply";
    case Proto::kIcmpTimeExceeded:
      return "icmp-time-exceeded";
  }
  return "unknown";
}

std::string Packet::summary() const {
  return util::format("%s %s:%u -> %s:%u ttl=%d len=%zu",
                      std::string(proto_name(proto)).c_str(),
                      src.str().c_str(), src_port, dst.str().c_str(), dst_port,
                      ttl, payload.size());
}

namespace {

// Byte offsets of the fields after the magic; see the layout in packet.h.
constexpr std::size_t kAddrSize = 17;  // family byte + 16 address bytes
constexpr std::size_t kSrcAt = kTunnelMagic.size();
constexpr std::size_t kDstAt = kSrcAt + kAddrSize;
constexpr std::size_t kProtoAt = kDstAt + kAddrSize;
constexpr std::size_t kSrcPortAt = kProtoAt + 1;
constexpr std::size_t kDstPortAt = kSrcPortAt + 2;
constexpr std::size_t kTtlAt = kDstPortAt + 2;
constexpr std::size_t kLenAt = kTtlAt + 4;
static_assert(kLenAt + 4 == kTunnelHeaderSize);

void put_addr(std::string& out, const IpAddr& a) {
  out.push_back(static_cast<char>(a.family()));
  const auto& b = a.bytes();
  out.append(reinterpret_cast<const char*>(b.data()), b.size());
}

std::optional<IpAddr> get_addr(const char* p) {
  std::array<std::uint8_t, 16> b{};
  std::memcpy(b.data(), p + 1, b.size());
  switch (static_cast<IpFamily>(static_cast<std::uint8_t>(p[0]))) {
    case IpFamily::kV4:
      for (std::size_t i = 4; i < b.size(); ++i)
        if (b[i] != 0) return std::nullopt;
      return IpAddr::v4(b[0], b[1], b[2], b[3]);
    case IpFamily::kV6:
      return IpAddr::v6(b);
  }
  return std::nullopt;
}

}  // namespace

std::string encode_inner(const Packet& inner) {
  std::string out;
  out.reserve(kTunnelHeaderSize + inner.payload.size());
  out.append(kTunnelMagic);
  put_addr(out, inner.src);
  put_addr(out, inner.dst);
  out.push_back(static_cast<char>(inner.proto));
  util::put_le<std::uint16_t>(out, inner.src_port);
  util::put_le<std::uint16_t>(out, inner.dst_port);
  util::put_le<std::uint32_t>(out, static_cast<std::uint32_t>(inner.ttl));
  util::put_le<std::uint32_t>(out,
                              static_cast<std::uint32_t>(inner.payload.size()));
  out += inner.payload;
  return out;
}

std::optional<Packet> decode_inner(std::string_view payload) {
  if (payload.size() < kTunnelHeaderSize || !is_tunnel_frame(payload))
    return std::nullopt;
  const char* h = payload.data();
  const auto src = get_addr(h + kSrcAt);
  const auto dst = get_addr(h + kDstAt);
  if (!src || !dst) return std::nullopt;
  const auto proto = static_cast<std::uint8_t>(h[kProtoAt]);
  if (proto > static_cast<std::uint8_t>(Proto::kIcmpTimeExceeded))
    return std::nullopt;
  // A negative ttl wraps to a value far above 255.
  const auto ttl = util::get_le<std::uint32_t>(h + kTtlAt);
  if (ttl > 255) return std::nullopt;
  const auto len = util::get_le<std::uint32_t>(h + kLenAt);
  if (len != payload.size() - kTunnelHeaderSize) return std::nullopt;
  Packet p;
  p.src = *src;
  p.dst = *dst;
  p.proto = static_cast<Proto>(proto);
  p.src_port = util::get_le<std::uint16_t>(h + kSrcPortAt);
  p.dst_port = util::get_le<std::uint16_t>(h + kDstPortAt);
  p.ttl = static_cast<int>(ttl);
  p.payload.assign(payload.substr(kTunnelHeaderSize));
  return p;
}

}  // namespace vpna::netsim
