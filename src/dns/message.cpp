#include "dns/message.h"

#include <algorithm>
#include <charconv>

#include "netsim/packet.h"
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

void append_uint(std::string& out, unsigned v) {
  char buf[8];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;
  out.append(buf, end);
}

// Parses "<id>|<type>|" fields shared by queries and responses.
bool parse_id_type(std::string_view id, std::string_view type,
                   std::uint16_t& id_out, RrType& type_out) {
  std::uint16_t t = 0;
  if (!parse_u16(id, id_out) || !parse_u16(type, t) || t > 2) return false;
  type_out = static_cast<RrType>(t);
  return true;
}
}  // namespace

std::string DnsQuery::encode() const {
  std::string out;
  out.reserve(16 + name.size() + netsim::kPayloadHeadroom);
  out += "DNSQ|";
  append_uint(out, id);
  out += '|';
  append_uint(out, static_cast<unsigned>(type));
  out += '|';
  out += name;
  return out;
}

std::optional<DnsQuery> DnsQuery::decode(std::string_view payload) {
  if (!util::starts_with(payload, "DNSQ|")) return std::nullopt;
  const auto parts = util::split_exact<3>(payload.substr(5), '|');
  if (!parts) return std::nullopt;
  DnsQuery q;
  if (!parse_id_type((*parts)[0], (*parts)[1], q.id, q.type))
    return std::nullopt;
  q.name = canonical_name((*parts)[2]);
  if (q.name.empty()) return std::nullopt;
  return q;
}

std::string DnsResponse::encode() const {
  return encode_response(id, type, name, rcode, addresses, texts);
}

std::string encode_response(std::uint16_t id, RrType type,
                            std::string_view name, Rcode rcode,
                            const std::vector<netsim::IpAddr>& addresses,
                            const std::vector<std::string>& texts) {
  std::string out;
  std::size_t size =
      24 + name.size() + 16 * addresses.size() + netsim::kPayloadHeadroom;
  for (const auto& t : texts) size += t.size() + 1;
  out.reserve(size);
  out += "DNSR|";
  append_uint(out, id);
  out += '|';
  append_uint(out, static_cast<unsigned>(type));
  out += '|';
  out += util::c_str_view(name);
  out += '|';
  append_uint(out, static_cast<unsigned>(rcode));
  out += '|';
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    if (i != 0) out += ',';
    out += addresses[i].str();
  }
  out += '|';
  // TXT strings may contain '|' in principle; the simulator never emits
  // them, so a simple comma-joined encoding suffices. Names and the TXT
  // field end at their first NUL, as the printf-based encoder wrote them.
  for (std::size_t i = 0; i < texts.size(); ++i) {
    if (i != 0) out += ',';
    const auto text = util::c_str_view(texts[i]);
    out += text;
    if (text.size() != texts[i].size()) break;
  }
  return out;
}

std::optional<DnsResponse> DnsResponse::decode(std::string_view payload) {
  if (!util::starts_with(payload, "DNSR|")) return std::nullopt;
  const auto parts = util::split_exact<6>(payload.substr(5), '|');
  if (!parts) return std::nullopt;
  const auto& [id, type, name, rcode, addrs, texts] = *parts;
  DnsResponse r;
  if (!parse_id_type(id, type, r.id, r.type)) return std::nullopt;
  std::uint16_t rc = 0;
  if (!parse_u16(rcode, rc) || rc > 3) return std::nullopt;
  r.rcode = static_cast<Rcode>(rc);
  if (!addrs.empty()) {
    r.addresses.reserve(
        1 + static_cast<std::size_t>(std::count(addrs.begin(), addrs.end(), ',')));
    const bool parsed =
        util::for_each_field(addrs, ',', [&](std::string_view s) {
          const auto a = netsim::IpAddr::parse(s);
          if (a) r.addresses.push_back(*a);
          return a.has_value();
        });
    if (!parsed) return std::nullopt;
  }
  if (!texts.empty()) {
    r.texts.reserve(
        1 + static_cast<std::size_t>(std::count(texts.begin(), texts.end(), ',')));
    util::for_each_field(texts, ',', [&](std::string_view s) {
      r.texts.emplace_back(s);
      return true;
    });
  }
  r.name = canonical_name(name);
  return r;
}

}  // namespace vpna::dns
