// DNS message model. The simulator uses a compact text wire format instead
// of RFC 1035 binary framing; the semantics the measurement suite depends on
// (query/response matching, record types, rcodes, resolver identity) are
// preserved exactly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "netsim/ip.h"

namespace vpna::dns {

enum class RrType : std::uint8_t { kA, kAaaa, kTxt };
enum class Rcode : std::uint8_t { kNoError, kNxDomain, kServFail, kRefused };

[[nodiscard]] std::string_view rrtype_name(RrType t) noexcept;
[[nodiscard]] std::string_view rcode_name(Rcode r) noexcept;

struct DnsQuery {
  std::uint16_t id = 0;
  RrType type = RrType::kA;
  std::string name;  // fully-qualified, lowercase, no trailing dot

  [[nodiscard]] std::string encode() const;
  static std::optional<DnsQuery> decode(std::string_view payload);
};

struct DnsResponse {
  std::uint16_t id = 0;
  RrType type = RrType::kA;
  std::string name;
  Rcode rcode = Rcode::kNoError;
  std::vector<netsim::IpAddr> addresses;  // A/AAAA answers
  std::vector<std::string> texts;         // TXT answers

  [[nodiscard]] std::string encode() const;
  static std::optional<DnsResponse> decode(std::string_view payload);
};

// DnsResponse::encode over borrowed fields, so a server can answer straight
// from its record tables without first copying them into a DnsResponse.
[[nodiscard]] std::string encode_response(
    std::uint16_t id, RrType type, std::string_view name, Rcode rcode,
    const std::vector<netsim::IpAddr>& addresses,
    const std::vector<std::string>& texts);

// Lowercases and strips a trailing dot; DNS names compare case-insensitively.
[[nodiscard]] std::string canonical_name(std::string_view name);

// True if `name` equals `zone` or is a subdomain of it.
[[nodiscard]] bool in_zone(std::string_view name, std::string_view zone);

}  // namespace vpna::dns
