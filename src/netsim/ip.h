// IP addressing primitives: dual-family address type, CIDR prefixes, and
// parsing/formatting. These are value types used throughout the simulator;
// all the usual networking conventions (network byte order, longest-prefix
// semantics) apply.
#pragma once

#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace vpna::netsim {

enum class IpFamily : std::uint8_t { kV4, kV6 };

// An IPv4 or IPv6 address. IPv4 occupies the first 4 bytes of storage;
// comparisons never mix families (family is the major sort key).
class IpAddr {
 public:
  // Default: 0.0.0.0
  constexpr IpAddr() noexcept = default;

  // Constructs an IPv4 address from a host-order 32-bit value
  // (e.g. 0x08080808 == 8.8.8.8).
  static IpAddr v4(std::uint32_t host_order) noexcept;

  // Constructs an IPv4 address from dotted octets.
  static IpAddr v4(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                   std::uint8_t d) noexcept;

  // Constructs an IPv6 address from 16 bytes.
  static IpAddr v6(const std::array<std::uint8_t, 16>& bytes) noexcept;

  // Convenience IPv6 constructor from eight 16-bit groups.
  static IpAddr v6_groups(const std::array<std::uint16_t, 8>& groups) noexcept;

  // Parses "a.b.c.d" or RFC 4291 hex-groups form (with "::" compression).
  // Returns nullopt on malformed input.
  static std::optional<IpAddr> parse(std::string_view text);

  [[nodiscard]] IpFamily family() const noexcept { return family_; }
  [[nodiscard]] bool is_v4() const noexcept { return family_ == IpFamily::kV4; }
  [[nodiscard]] bool is_v6() const noexcept { return family_ == IpFamily::kV6; }
  [[nodiscard]] bool is_unspecified() const noexcept {
    for (auto b : bytes_)
      if (b != 0) return false;
    return true;
  }

  // IPv4 value in host order. Requires is_v4().
  [[nodiscard]] std::uint32_t v4_value() const;

  // Raw bytes (4 meaningful for v4, 16 for v6).
  [[nodiscard]] const std::array<std::uint8_t, 16>& bytes() const noexcept {
    return bytes_;
  }

  // Copy with every bit past `prefix_len` cleared — the enclosing network
  // address, same family. The LPM probe calls this per bucket, so it skips
  // the range validation Cidr's constructor does.
  [[nodiscard]] IpAddr masked(int prefix_len) const noexcept {
    IpAddr out = *this;
    int bits = prefix_len;
    for (auto& b : out.bytes_) {
      if (bits >= 8) {
        bits -= 8;
        continue;
      }
      b &= static_cast<std::uint8_t>(bits > 0 ? 0xff00u >> bits : 0);
      bits = 0;
    }
    return out;
  }

  // Canonical text form ("8.8.8.8", "2001:db8::1").
  [[nodiscard]] std::string str() const;
  // Appends str() to `out` without a temporary.
  void append_to(std::string& out) const;

  // The 16 address bytes as two native words: equality and hashing read
  // these instead of comparing byte by byte.
  [[nodiscard]] constexpr std::array<std::uint64_t, 2> words() const noexcept {
    return std::bit_cast<std::array<std::uint64_t, 2>>(bytes_);
  }

  friend constexpr auto operator<=>(const IpAddr&, const IpAddr&) noexcept = default;
  friend constexpr bool operator==(const IpAddr& a, const IpAddr& b) noexcept {
    const auto wa = a.words();
    const auto wb = b.words();
    return a.family_ == b.family_ && wa[0] == wb[0] && wa[1] == wb[1];
  }

 private:
  IpFamily family_ = IpFamily::kV4;
  std::array<std::uint8_t, 16> bytes_{};
};

// A routing prefix: address + prefix length. For IPv4 the prefix length is
// in [0,32]; for IPv6 in [0,128]. The stored address is masked to the
// prefix on construction so equal prefixes compare equal.
class Cidr {
 public:
  constexpr Cidr() noexcept = default;
  Cidr(IpAddr addr, int prefix_len);

  // Parses "10.0.0.0/8" or "2001:db8::/32".
  static std::optional<Cidr> parse(std::string_view text);

  [[nodiscard]] const IpAddr& network() const noexcept { return network_; }
  [[nodiscard]] int prefix_len() const noexcept { return prefix_len_; }
  [[nodiscard]] IpFamily family() const noexcept { return network_.family(); }

  // True if `addr` is within this prefix (families must match). Compares
  // only the prefix bits — network_ is masked on construction, so this is
  // equivalent to masking `addr` and comparing whole addresses.
  [[nodiscard]] bool contains(const IpAddr& addr) const noexcept {
    if (addr.family() != network_.family()) return false;
    const auto& a = addr.bytes();
    const auto& n = network_.bytes();
    int bits = prefix_len_;
    std::size_t i = 0;
    for (; bits >= 8; bits -= 8, ++i)
      if (a[i] != n[i]) return false;
    if (bits > 0) {
      const auto mask = static_cast<std::uint8_t>(0xff00u >> bits);
      if ((a[i] & mask) != n[i]) return false;
    }
    return true;
  }

  // The n-th host address within the prefix (v4 only; n counts from the
  // network address). Requires the result to stay inside the prefix.
  [[nodiscard]] IpAddr host_at(std::uint32_t n) const;

  [[nodiscard]] std::string str() const;

  friend auto operator<=>(const Cidr&, const Cidr&) noexcept = default;
  friend bool operator==(const Cidr&, const Cidr&) noexcept = default;

 private:
  IpAddr network_{};
  int prefix_len_ = 0;
};

// Returns the enclosing /24 (v4) or /48 (v6) block of an address — the
// granularity the paper uses for "same IP block" infrastructure analysis.
[[nodiscard]] Cidr enclosing_block(const IpAddr& addr);

}  // namespace vpna::netsim

template <>
struct std::hash<vpna::netsim::IpAddr> {
  std::size_t operator()(const vpna::netsim::IpAddr& a) const noexcept {
    // Multiply-xorshift over the two address words and the family. No
    // IpAddr-keyed container is iterated into output, so the hash values
    // themselves never reach a payload.
    const auto w = a.words();
    std::uint64_t h = (w[0] ^ static_cast<std::uint64_t>(a.family())) *
                      0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 29) ^ w[1]) * 0xbf58476d1ce4e5b9ULL;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};

template <>
struct std::hash<vpna::netsim::Cidr> {
  std::size_t operator()(const vpna::netsim::Cidr& c) const noexcept {
    return std::hash<vpna::netsim::IpAddr>{}(c.network()) ^
           (static_cast<std::size_t>(c.prefix_len()) << 1);
  }
};
