// The seeded decoder corpus shared by the fuzz and verdict-pin suites:
// random bytes, random strings over the wire formats' own punctuation
// behind each format's magic, and byte-level mutations of valid encodings.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dns/message.h"
#include "http/message.h"
#include "netsim/packet.h"
#include "tlssim/cert.h"
#include "tlssim/handshake.h"
#include "util/rng.h"
#include "vpn/ovpn_config.h"

namespace vpna::corpus {

inline std::string random_bytes(util::Rng& rng, std::size_t max_len) {
  std::string out;
  const auto len = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(max_len)));
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i)
    out += static_cast<char>(rng.uniform_int(0, 255));
  return out;
}

// Flip/insert/delete a few bytes of a valid encoding.
inline std::string mutate(util::Rng& rng, std::string valid) {
  const int edits = static_cast<int>(rng.uniform_int(1, 4));
  for (int i = 0; i < edits && !valid.empty(); ++i) {
    const auto pos = rng.index(valid.size());
    switch (rng.uniform_int(0, 2)) {
      case 0:
        valid[pos] = static_cast<char>(rng.uniform_int(0, 255));
        break;
      case 1:
        valid.insert(valid.begin() + static_cast<std::ptrdiff_t>(pos),
                     static_cast<char>(rng.uniform_int(32, 126)));
        break;
      default:
        valid.erase(valid.begin() + static_cast<std::ptrdiff_t>(pos));
        break;
    }
  }
  return valid;
}

// A format's magic followed by a random string over the separators and
// field characters the text decoders split on: field-count, empty-field
// and number-range edge cases that uniform random bytes almost never hit.
inline std::string punctuated(util::Rng& rng, std::size_t max_len) {
  static constexpr std::array<std::string_view, 7> kMagic = {
      "DNSQ|", "DNSR|", "CERT{", "TLSS|", "GET / HTTP/1.1\n", "HTTP/1.1 ",
      ""};
  static constexpr std::string_view kAlphabet = "|;,{}:\n 0123459ab.-T1";
  std::string out(kMagic[rng.index(kMagic.size())]);
  const auto len = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(max_len)));
  for (std::size_t i = 0; i < len; ++i)
    out += kAlphabet[rng.index(kAlphabet.size())];
  return out;
}

// One valid encoding of every wire format the suites decode.
inline std::vector<std::string> valid_frames() {
  std::vector<std::string> out;

  netsim::Packet p;
  p.src = netsim::IpAddr::v4(10, 8, 0, 2);
  p.dst = netsim::IpAddr::v4(8, 8, 8, 8);
  p.payload = "DNSQ|1|0|example.com";
  out.push_back(netsim::encode_inner(p));
  netsim::Packet p6 = p;
  p6.src = *netsim::IpAddr::parse("2001:db8::2");
  p6.dst = *netsim::IpAddr::parse("2a0e:100::53");
  p6.proto = netsim::Proto::kTcp;
  p6.ttl = 255;
  out.push_back(netsim::encode_inner(p6));

  dns::DnsResponse resp;
  resp.id = 3;
  resp.name = "a.example.com";
  resp.addresses = {netsim::IpAddr::v4(1, 2, 3, 4)};
  out.push_back(resp.encode());
  dns::DnsResponse multi;
  multi.id = 65535;
  multi.type = dns::RrType::kTxt;
  multi.name = "t.example.com";
  multi.rcode = dns::Rcode::kRefused;
  multi.addresses = {netsim::IpAddr::v4(9, 9, 9, 9),
                     *netsim::IpAddr::parse("2001:db8::1")};
  multi.texts = {"v=spf1", "", "tag"};
  out.push_back(multi.encode());
  dns::DnsQuery q;
  q.id = 77;
  q.type = dns::RrType::kAaaa;
  q.name = "www.example.com";
  out.push_back(q.encode());

  http::HttpRequest req;
  req.host = "example.com";
  req.headers = {{"User-Agent", "x"}};
  out.push_back(req.encode());
  http::HttpResponse hresp;
  hresp.status = 301;
  hresp.reason = "Moved Permanently";
  hresp.headers = {{"Location", "https://example.com/"}, {"X-A", " b"}};
  hresp.body = "<html>\n\nbody</html>";
  out.push_back(hresp.encode());

  const auto chain = tlssim::issue_chain("example.com", "CA", 7);
  out.push_back(chain.encode());
  out.push_back(chain.certs.front().encode());
  out.push_back(tlssim::encode_server_hello(chain));

  vpn::OvpnConfig config;
  config.remote_host = "45.0.0.1";
  config.dhcp_dns = {netsim::IpAddr::v4(10, 8, 0, 1)};
  out.push_back(config.serialize());
  return out;
}

}  // namespace vpna::corpus
