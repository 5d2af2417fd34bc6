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
  if (name.ends_with('.')) name.remove_suffix(1);
  return util::to_lower(name);
}

bool is_canonical(std::string_view name) noexcept {
  if (name.ends_with('.')) return false;
  for (const char c : name)
    if (c >= 'A' && c <= 'Z') return false;
  return true;
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

std::string encode_query(std::uint16_t id, RrType type,
                         std::string_view name) {
  if (name.ends_with('.')) name.remove_suffix(1);
  std::string out;
  out.reserve(16 + name.size() + netsim::kPayloadHeadroom);
  out += "DNSQ|";
  append_uint(out, id);
  out += '|';
  append_uint(out, static_cast<unsigned>(type));
  out += '|';
  util::append_lower(out, name);
  return out;
}

std::optional<DnsQueryView> DnsQueryView::parse(std::string_view payload) {
  if (!util::starts_with(payload, "DNSQ|")) return std::nullopt;
  const auto parts = util::split_exact<3>(payload.substr(5), '|');
  if (!parts) return std::nullopt;
  DnsQueryView q;
  if (!parse_id_type((*parts)[0], (*parts)[1], q.id, q.type))
    return std::nullopt;
  q.name = (*parts)[2];
  // Empty once canonical: "" or ".".
  if (q.name.empty() || q.name == ".") return std::nullopt;
  return q;
}

namespace {
// "DNSR|<id>|<type>|<name>|<rcode>|" into a string reserved for
// `answers_size` more bytes. The name ends at its first NUL, as the
// printf-based encoder wrote it.
std::string response_head(std::uint16_t id, RrType type, std::string_view name,
                          Rcode rcode, std::size_t answers_size) {
  std::string out;
  out.reserve(24 + name.size() + answers_size + netsim::kPayloadHeadroom);
  out += "DNSR|";
  append_uint(out, id);
  out += '|';
  append_uint(out, static_cast<unsigned>(type));
  out += '|';
  out += util::c_str_view(name);
  out += '|';
  append_uint(out, static_cast<unsigned>(rcode));
  out += '|';
  return out;
}

// Appends the i-th TXT string of the comma-joined TXT field. TXT strings
// may contain '|' in principle; the simulator never emits them, so the
// simple encoding suffices. The field ends at the first NUL, as the
// printf-based encoder wrote it: false once it has.
bool append_text(std::string& out, std::size_t i, std::string_view text) {
  if (i != 0) out += ',';
  const auto written = util::c_str_view(text);
  out += written;
  return written.size() == text.size();
}
}  // namespace

std::string encode_response(std::uint16_t id, RrType type,
                            std::string_view name, Rcode rcode,
                            const std::vector<netsim::IpAddr>& addresses,
                            const std::vector<std::string>& texts) {
  std::size_t size = 16 * addresses.size();
  for (const auto& t : texts) size += t.size() + 1;
  std::string out = response_head(id, type, name, rcode, size);
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    if (i != 0) out += ',';
    addresses[i].append_to(out);
  }
  out += '|';
  for (std::size_t i = 0; i < texts.size(); ++i)
    if (!append_text(out, i, texts[i])) break;
  return out;
}

std::string encode_response(std::uint16_t id, const DnsResponseView& reply) {
  std::string folded;
  std::string_view name = reply.name;
  if (!is_canonical(name)) name = folded = canonical_name(name);
  std::string out =
      response_head(id, reply.type, name, reply.rcode,
                    reply.addresses.size() + reply.texts.size());
  // Each answer is re-formatted, exactly as decoding and encoding would.
  std::size_t i = 0;
  if (!reply.addresses.empty()) {
    util::for_each_field(reply.addresses, ',', [&](std::string_view a) {
      if (i++ != 0) out += ',';
      netsim::IpAddr::parse(a)->append_to(out);
      return true;
    });
  }
  out += '|';
  i = 0;
  if (!reply.texts.empty()) {
    util::for_each_field(reply.texts, ',', [&](std::string_view t) {
      return append_text(out, i++, t);
    });
  }
  return out;
}

std::optional<DnsResponseView> DnsResponseView::parse(
    std::string_view payload) {
  if (!util::starts_with(payload, "DNSR|")) return std::nullopt;
  const auto parts = util::split_exact<6>(payload.substr(5), '|');
  if (!parts) return std::nullopt;
  const auto& [id, type, name, rcode, addrs, texts] = *parts;
  DnsResponseView r;
  if (!parse_id_type(id, type, r.id, r.type)) return std::nullopt;
  std::uint16_t rc = 0;
  if (!parse_u16(rcode, rc) || rc > 3) return std::nullopt;
  r.rcode = static_cast<Rcode>(rc);
  if (!addrs.empty() &&
      !util::for_each_field(addrs, ',', [](std::string_view s) {
        return netsim::IpAddr::parse(s).has_value();
      }))
    return std::nullopt;
  r.name = name;
  r.addresses = addrs;
  r.texts = texts;
  return r;
}

void DnsResponseView::append_addresses(
    std::vector<netsim::IpAddr>& out) const {
  if (addresses.empty()) return;
  out.reserve(out.size() + 1 +
              static_cast<std::size_t>(
                  std::count(addresses.begin(), addresses.end(), ',')));
  util::for_each_field(addresses, ',', [&](std::string_view s) {
    out.push_back(*netsim::IpAddr::parse(s));
    return true;
  });
}

void DnsResponseView::append_texts(std::vector<std::string>& out) const {
  if (texts.empty()) return;
  out.reserve(out.size() + 1 +
              static_cast<std::size_t>(
                  std::count(texts.begin(), texts.end(), ',')));
  util::for_each_field(texts, ',', [&](std::string_view s) {
    out.emplace_back(s);
    return true;
  });
}

}  // namespace vpna::dns
