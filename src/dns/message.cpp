#include "dns/message.h"

#include <charconv>

#include "util/strings.h"

namespace vpna::dns {

std::string_view rrtype_name(RrType t) noexcept {
  switch (t) {
    case RrType::kA: return "A";
    case RrType::kAaaa: return "AAAA";
    case RrType::kTxt: return "TXT";
  }
  return "?";
}

std::string_view rcode_name(Rcode r) noexcept {
  switch (r) {
    case Rcode::kNoError: return "NOERROR";
    case Rcode::kNxDomain: return "NXDOMAIN";
    case Rcode::kServFail: return "SERVFAIL";
    case Rcode::kRefused: return "REFUSED";
  }
  return "?";
}

std::string canonical_name(std::string_view name) {
  std::string n = util::to_lower(name);
  if (!n.empty() && n.back() == '.') n.pop_back();
  return n;
}

bool in_zone(std::string_view name, std::string_view zone) {
  if (name == zone) return true;
  if (name.size() <= zone.size()) return false;
  return util::ends_with(name, zone) &&
         name[name.size() - zone.size() - 1] == '.';
}

namespace {
bool parse_u16(std::string_view s, std::uint16_t& out) {
  unsigned v = 0;
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || p != s.data() + s.size() || v > 0xffff) return false;
  out = static_cast<std::uint16_t>(v);
  return true;
}
}  // namespace

std::string DnsQuery::encode() const {
  return util::format("DNSQ|%u|%u|", id, static_cast<unsigned>(type)) + name;
}

std::optional<DnsQuery> DnsQuery::decode(std::string_view payload) {
  if (!util::starts_with(payload, "DNSQ|")) return std::nullopt;
  const auto parts = util::split(payload.substr(5), '|');
  if (parts.size() != 3) return std::nullopt;
  DnsQuery q;
  if (!parse_u16(parts[0], q.id)) return std::nullopt;
  std::uint16_t type = 0;
  if (!parse_u16(parts[1], type) || type > 2) return std::nullopt;
  q.type = static_cast<RrType>(type);
  q.name = canonical_name(parts[2]);
  if (q.name.empty()) return std::nullopt;
  return q;
}

std::string DnsResponse::encode() const {
  std::vector<std::string> addr_strs;
  addr_strs.reserve(addresses.size());
  for (const auto& a : addresses) addr_strs.push_back(a.str());
  // TXT strings may contain '|' in principle; the simulator never emits
  // them, so a simple comma-joined encoding suffices.
  return util::format("DNSR|%u|%u|%s|%u|%s|%s", id,
                      static_cast<unsigned>(type), name.c_str(),
                      static_cast<unsigned>(rcode),
                      util::join(addr_strs, ",").c_str(),
                      util::join(texts, ",").c_str());
}

std::optional<DnsResponse> DnsResponse::decode(std::string_view payload) {
  if (!util::starts_with(payload, "DNSR|")) return std::nullopt;
  const auto parts = util::split(payload.substr(5), '|');
  if (parts.size() != 6) return std::nullopt;
  DnsResponse r;
  if (!parse_u16(parts[0], r.id)) return std::nullopt;
  std::uint16_t type = 0;
  if (!parse_u16(parts[1], type) || type > 2) return std::nullopt;
  r.type = static_cast<RrType>(type);
  r.name = canonical_name(parts[2]);
  std::uint16_t rcode = 0;
  if (!parse_u16(parts[3], rcode) || rcode > 3) return std::nullopt;
  r.rcode = static_cast<Rcode>(rcode);
  if (!parts[4].empty()) {
    for (const auto s : util::split(parts[4], ',')) {
      const auto a = netsim::IpAddr::parse(s);
      if (!a) return std::nullopt;
      r.addresses.push_back(*a);
    }
  }
  if (!parts[5].empty())
    for (const auto s : util::split(parts[5], ',')) r.texts.emplace_back(s);
  return r;
}

}  // namespace vpna::dns
