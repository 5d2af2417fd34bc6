#include "vpn/ovpn_config.h"

#include <charconv>

#include "util/strings.h"
#include "vpn/server.h"

namespace vpna::vpn {

std::string OvpnConfig::serialize() const {
  std::string out;
  if (remark) out += "# " + *remark + "\n";
  out += "client\n";
  out += "dev tun\n";
  out += util::format("proto %s\n", proto.c_str());
  out += util::format("remote %s %u\n", remote_host.c_str(), remote_port);
  if (redirect_gateway) out += "redirect-gateway def1\n";
  for (const auto& dns : dhcp_dns)
    out += util::format("dhcp-option DNS %s\n", dns.str().c_str());
  if (block_outside_dns) out += "block-outside-dns\n";
  if (block_ipv6) out += "block-ipv6\n";
  out += "persist-key\npersist-tun\nverb 3\n";
  return out;
}

std::optional<OvpnConfig> OvpnConfig::parse(std::string_view text) {
  OvpnConfig config;
  bool saw_remote = false;
  for (const auto& raw_line : util::split(text, '\n')) {
    const auto line = util::trim(raw_line);
    if (line.empty()) continue;
    if (line.front() == '#' || line.front() == ';') {
      if (!config.remark && line.size() > 2)
        config.remark = std::string(util::trim(line.substr(1)));
      continue;
    }
    const auto tokens = util::split(line, ' ');
    const auto directive = tokens[0];
    if (directive == "remote" && tokens.size() >= 2) {
      config.remote_host = std::string(tokens[1]);
      if (tokens.size() >= 3) {
        unsigned port = 0;
        const auto p = tokens[2];
        auto [ptr, ec] = std::from_chars(p.data(), p.data() + p.size(), port);
        if (ec == std::errc{} && ptr == p.data() + p.size() && port > 0 &&
            port <= 0xffff)
          config.remote_port = static_cast<std::uint16_t>(port);
      }
      saw_remote = true;
    } else if (directive == "proto" && tokens.size() >= 2) {
      config.proto = std::string(tokens[1]);
    } else if (directive == "redirect-gateway") {
      config.redirect_gateway = true;
    } else if (directive == "dhcp-option" && tokens.size() >= 3 &&
               tokens[1] == "DNS") {
      if (const auto addr = netsim::IpAddr::parse(tokens[2]))
        config.dhcp_dns.push_back(*addr);
    } else if (directive == "block-outside-dns") {
      config.block_outside_dns = true;
    } else if (directive == "block-ipv6") {
      config.block_ipv6 = true;
    }
    // Everything else ("client", "dev", "persist-*", "verb", ...) is
    // accepted and ignored, as real parsers do with unknown-but-harmless
    // directives.
  }
  if (!saw_remote) return std::nullopt;
  return config;
}

OvpnConfig make_provider_config(const ProviderSpec& spec,
                                const netsim::IpAddr& server) {
  OvpnConfig config;
  config.remark = spec.name + " generated profile";
  config.remote_host = server.str();
  config.remote_port = protocol_port(spec.protocols.empty()
                                         ? TunnelProtocol::kOpenVpn
                                         : spec.protocols.front());
  config.redirect_gateway = true;
  // Hardening directives appear only if the provider actually configures
  // the corresponding protection in its own client.
  if (spec.behavior.redirects_dns) {
    config.dhcp_dns.push_back(tunnel_gateway_addr());
    config.block_outside_dns = true;
  }
  if (spec.behavior.blocks_ipv6 && !spec.behavior.supports_ipv6)
    config.block_ipv6 = true;
  return config;
}

ProviderBehavior behavior_from_config(const OvpnConfig& config) {
  ProviderBehavior behavior;  // defaults describe a well-behaved client...
  // ...but a third-party client only enacts what the file says.
  behavior.redirects_dns = !config.dhcp_dns.empty() || config.block_outside_dns;
  behavior.blocks_ipv6 = config.block_ipv6;
  behavior.supports_ipv6 = false;
  // Third-party OpenVPN has no provider kill switch; on failure the
  // process exits and the routes it added disappear.
  behavior.has_kill_switch = false;
  behavior.fails_open = true;
  behavior.failure_detect_seconds = 60.0;  // ping-restart default ballpark
  return behavior;
}

}  // namespace vpna::vpn
