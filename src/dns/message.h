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

// A query parsed in place: `name` views the payload as sent, and
// canonical_name(name) is the query's name (never empty). Servers parse
// through it.
struct DnsQueryView {
  std::uint16_t id = 0;
  RrType type = RrType::kA;
  std::string_view name;

  static std::optional<DnsQueryView> parse(std::string_view payload);
};

// A response parsed in place: `name` views the payload as sent (its
// canonical_name is the answered name), `addresses` is the comma-separated
// answer field, every entry of which parsed, and `texts` the TXT field.
// Clients and the recursive resolver read replies through it.
struct DnsResponseView {
  std::uint16_t id = 0;
  RrType type = RrType::kA;
  std::string_view name;
  Rcode rcode = Rcode::kNoError;
  std::string_view addresses;
  std::string_view texts;

  // Appends the parsed A/AAAA answers and the TXT strings.
  void append_addresses(std::vector<netsim::IpAddr>& out) const;
  void append_texts(std::vector<std::string>& out) const;

  static std::optional<DnsResponseView> parse(std::string_view payload);
};

// "DNSQ|<id>|<type>|<canonical_name(name)>", with the name folded
// straight into the payload.
[[nodiscard]] std::string encode_query(std::uint16_t id, RrType type,
                                       std::string_view name);

// "DNSR|<id>|<type>|<name>|<rcode>|<addresses>|<texts>" over borrowed
// fields, so a server answers straight from its record tables. The name and
// each TXT string end at their first NUL; a TXT string holding one ends the
// field.
[[nodiscard]] std::string encode_response(
    std::uint16_t id, RrType type, std::string_view name, Rcode rcode,
    const std::vector<netsim::IpAddr>& addresses,
    const std::vector<std::string>& texts);
// `reply` re-encoded under a new id: its name made canonical and each
// answer re-formatted, as encode_response over its parsed fields writes it.
[[nodiscard]] std::string encode_response(std::uint16_t id,
                                          const DnsResponseView& reply);

// Lowercases and strips a trailing dot; DNS names compare case-insensitively.
[[nodiscard]] std::string canonical_name(std::string_view name);
// True if canonical_name(name) == name: no upper case, no trailing dot.
[[nodiscard]] bool is_canonical(std::string_view name) noexcept;

// True if `name` equals `zone` or is a subdomain of it.
[[nodiscard]] bool in_zone(std::string_view name, std::string_view zone);

}  // namespace vpna::dns
