#include "netsim/ip.h"

#include <charconv>
#include <cstring>
#include <stdexcept>

namespace vpna::netsim {

IpAddr IpAddr::v4(std::uint32_t host_order) noexcept {
  IpAddr a;
  a.family_ = IpFamily::kV4;
  a.bytes_[0] = static_cast<std::uint8_t>(host_order >> 24);
  a.bytes_[1] = static_cast<std::uint8_t>(host_order >> 16);
  a.bytes_[2] = static_cast<std::uint8_t>(host_order >> 8);
  a.bytes_[3] = static_cast<std::uint8_t>(host_order);
  return a;
}

IpAddr IpAddr::v4(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                  std::uint8_t d) noexcept {
  return v4((static_cast<std::uint32_t>(a) << 24) |
            (static_cast<std::uint32_t>(b) << 16) |
            (static_cast<std::uint32_t>(c) << 8) | d);
}

IpAddr IpAddr::v6(const std::array<std::uint8_t, 16>& bytes) noexcept {
  IpAddr a;
  a.family_ = IpFamily::kV6;
  a.bytes_ = bytes;
  return a;
}

IpAddr IpAddr::v6_groups(const std::array<std::uint16_t, 8>& groups) noexcept {
  std::array<std::uint8_t, 16> b{};
  for (std::size_t i = 0; i < 8; ++i) {
    b[2 * i] = static_cast<std::uint8_t>(groups[i] >> 8);
    b[2 * i + 1] = static_cast<std::uint8_t>(groups[i]);
  }
  return v6(b);
}

std::uint32_t IpAddr::v4_value() const {
  if (!is_v4()) throw std::logic_error("v4_value on IPv6 address");
  return (static_cast<std::uint32_t>(bytes_[0]) << 24) |
         (static_cast<std::uint32_t>(bytes_[1]) << 16) |
         (static_cast<std::uint32_t>(bytes_[2]) << 8) | bytes_[3];
}

namespace {

// "a.b.c.d": four decimal fields of 1-3 digits, each at most 255. Parsed in
// place; no field is copied out.
std::optional<IpAddr> parse_v4(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::array<std::uint8_t, 4> oct{};
  const char* field = text.data();
  const char* const end = field + text.size();
  for (std::size_t i = 0; i < oct.size(); ++i) {
    const char* stop = end;
    if (i + 1 < oct.size()) {
      stop = static_cast<const char*>(
          std::memchr(field, '.', static_cast<std::size_t>(end - field)));
      if (stop == nullptr) return std::nullopt;
    }
    if (stop == field || stop - field > 3) return std::nullopt;
    unsigned value = 0;
    auto [p, ec] = std::from_chars(field, stop, value);
    if (ec != std::errc{} || p != stop || value > 255) return std::nullopt;
    oct[i] = static_cast<std::uint8_t>(value);
    if (stop != end) field = stop + 1;
  }
  return IpAddr::v4(oct[0], oct[1], oct[2], oct[3]);
}

std::optional<std::uint16_t> parse_group(std::string_view g) {
  if (g.empty() || g.size() > 4) return std::nullopt;
  unsigned value = 0;
  auto [p, ec] = std::from_chars(g.data(), g.data() + g.size(), value, 16);
  if (ec != std::errc{} || p != g.data() + g.size() || value > 0xffff)
    return std::nullopt;
  return static_cast<std::uint16_t>(value);
}

// Up to eight 16-bit groups, as they appear on one side of a "::".
struct Groups {
  std::array<std::uint16_t, 8> value{};
  std::size_t count = 0;
};

// Parses colon-separated hex groups; false on a malformed group or on more
// groups than an address holds. An empty side has no groups.
bool parse_groups(std::string_view side, Groups& out) {
  if (side.empty()) return true;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = side.find(':', start);
    const auto g = parse_group(side.substr(start, colon - start));
    if (!g || out.count == out.value.size()) return false;
    out.value[out.count++] = *g;
    if (colon == std::string_view::npos) return true;
    start = colon + 1;
  }
}

std::optional<IpAddr> parse_v6(std::string_view text) {
  // Handles "::" compression; does not handle embedded IPv4 tails, which the
  // simulator never produces.
  const std::size_t dcolon = text.find("::");
  Groups head;
  if (dcolon == std::string_view::npos) {
    if (!parse_groups(text, head) || head.count != 8) return std::nullopt;
    return IpAddr::v6_groups(head.value);
  }
  if (text.find("::", dcolon + 1) != std::string_view::npos)
    return std::nullopt;  // at most one "::"
  Groups tail;
  if (!parse_groups(text.substr(0, dcolon), head)) return std::nullopt;
  if (!parse_groups(text.substr(dcolon + 2), tail)) return std::nullopt;
  if (head.count + tail.count >= 8) return std::nullopt;
  // The "::" stands for the zero groups between head and tail.
  std::array<std::uint16_t, 8> groups{};
  for (std::size_t i = 0; i < head.count; ++i) groups[i] = head.value[i];
  for (std::size_t i = 0; i < tail.count; ++i)
    groups[8 - tail.count + i] = tail.value[i];
  return IpAddr::v6_groups(groups);
}

}  // namespace

std::optional<IpAddr> IpAddr::parse(std::string_view text) {
  if (text.find(':') != std::string_view::npos) return parse_v6(text);
  return parse_v4(text);
}

std::string IpAddr::str() const {
  std::string out;
  append_to(out);
  return out;
}

void IpAddr::append_to(std::string& out) const {
  const auto append_number = [&out](unsigned value, int base) {
    char buf[8];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value, base);
    (void)ec;
    out.append(buf, end);
  };
  if (is_v4()) {
    for (std::size_t i = 0; i < 4; ++i) {
      if (i != 0) out += '.';
      append_number(bytes_[i], 10);
    }
    return;
  }
  // RFC 5952-style: compress the longest run of zero groups.
  std::array<std::uint16_t, 8> g{};
  for (std::size_t i = 0; i < 8; ++i)
    g[i] = static_cast<std::uint16_t>((bytes_[2 * i] << 8) | bytes_[2 * i + 1]);
  int best_start = -1, best_len = 0;
  for (int i = 0; i < 8;) {
    if (g[static_cast<std::size_t>(i)] != 0) {
      ++i;
      continue;
    }
    int j = i;
    while (j < 8 && g[static_cast<std::size_t>(j)] == 0) ++j;
    if (j - i > best_len) {
      best_len = j - i;
      best_start = i;
    }
    i = j;
  }
  if (best_len < 2) best_start = -1;  // only compress runs of 2+
  const std::size_t start = out.size();
  for (int i = 0; i < 8;) {
    if (i == best_start) {
      // The compressed run always renders as "::"; the preceding group
      // deliberately did not emit its trailing ':'.
      out += "::";
      i += best_len;
      if (i >= 8) break;
      continue;
    }
    append_number(g[static_cast<std::size_t>(i)], 16);
    ++i;
    if (i < 8 && i != best_start) out += ':';
  }
  if (out.size() == start) out += "::";
}

namespace {

std::array<std::uint8_t, 16> mask_bytes(const std::array<std::uint8_t, 16>& in,
                                        int prefix_len) {
  std::array<std::uint8_t, 16> out{};
  int bits = prefix_len;
  for (std::size_t i = 0; i < 16 && bits > 0; ++i) {
    if (bits >= 8) {
      out[i] = in[i];
      bits -= 8;
    } else {
      out[i] = static_cast<std::uint8_t>(in[i] & (0xff << (8 - bits)));
      bits = 0;
    }
  }
  return out;
}

}  // namespace

Cidr::Cidr(IpAddr addr, int prefix_len) : prefix_len_(prefix_len) {
  const int max = addr.is_v4() ? 32 : 128;
  if (prefix_len < 0 || prefix_len > max)
    throw std::invalid_argument("Cidr: prefix length out of range");
  if (addr.is_v4()) {
    // Mask within the first 4 bytes.
    auto b = addr.bytes();
    auto masked = mask_bytes(b, prefix_len);
    network_ = IpAddr::v4(masked[0], masked[1], masked[2], masked[3]);
  } else {
    network_ = IpAddr::v6(mask_bytes(addr.bytes(), prefix_len));
  }
}

std::optional<Cidr> Cidr::parse(std::string_view text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const auto addr = IpAddr::parse(text.substr(0, slash));
  if (!addr) return std::nullopt;
  const auto plen_text = text.substr(slash + 1);
  int plen = 0;
  auto [p, ec] =
      std::from_chars(plen_text.data(), plen_text.data() + plen_text.size(), plen);
  if (ec != std::errc{} || p != plen_text.data() + plen_text.size())
    return std::nullopt;
  const int max = addr->is_v4() ? 32 : 128;
  if (plen < 0 || plen > max) return std::nullopt;
  return Cidr(*addr, plen);
}

IpAddr Cidr::host_at(std::uint32_t n) const {
  if (!network_.is_v4())
    throw std::logic_error("host_at only supported for IPv4 prefixes");
  const std::uint64_t size = prefix_len_ >= 32
                                 ? 1ULL
                                 : (1ULL << (32 - prefix_len_));
  if (n >= size) throw std::out_of_range("host_at: index outside prefix");
  return IpAddr::v4(network_.v4_value() + n);
}

std::string Cidr::str() const {
  return network_.str() + "/" + std::to_string(prefix_len_);
}

Cidr enclosing_block(const IpAddr& addr) {
  return Cidr(addr, addr.is_v4() ? 24 : 48);
}

}  // namespace vpna::netsim
