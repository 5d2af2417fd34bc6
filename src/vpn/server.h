// The VPN vantage-point (exit-server) side: decapsulates client traffic,
// NATs it onto the egress address, forwards it into the world, and applies
// whatever egress behaviour the provider is configured with — transparent
// HTTP proxying, ad injection, DNS manipulation via the tunnel-internal
// resolver, or TLS re-termination.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "dns/server.h"
#include "netsim/host.h"
#include "netsim/network.h"
#include "tlssim/cert.h"
#include "vpn/provider.h"

namespace vpna::vpn {

// Address of the tunnel-internal gateway/resolver as seen by clients.
[[nodiscard]] netsim::IpAddr tunnel_gateway_addr();
// Tunnel-internal address handed to the n-th client session.
[[nodiscard]] netsim::IpAddr tunnel_client_addr(std::uint32_t session);

// Bound on the vantage-point host at the tunnel protocol's port. Handles
// keepalives and encapsulated inner packets.
class VpnServerService final : public netsim::Service {
 public:
  VpnServerService(std::string provider_name, ProviderBehavior behavior,
                   std::shared_ptr<const dns::ZoneRegistry> zones);

  std::optional<std::string> handle(netsim::ServiceContext& ctx) override;

  // Wire marker for keepalive probes.
  static constexpr std::string_view kKeepalive = "VPN-KEEPALIVE";
  static constexpr std::string_view kKeepaliveAck = "VPN-KEEPALIVE-ACK";

  [[nodiscard]] const ProviderBehavior& behavior() const noexcept {
    return behavior_;
  }

 private:
  // Serves tunnel-internal destinations (the gateway resolver).
  std::optional<std::string> handle_internal(netsim::ServiceContext& ctx,
                                             netsim::Packet& inner);
  // Forwards an inner packet into the world with egress transforms applied,
  // returning the inner reply packet (encoded) or nullopt. The packet's
  // payload moves onto the egress flow.
  std::optional<std::string> forward(netsim::ServiceContext& ctx,
                                     netsim::Packet fwd);

  std::string provider_name_;
  ProviderBehavior behavior_;
  std::shared_ptr<const dns::ZoneRegistry> zones_;
  dns::RecursiveResolverService resolver_;
  // "<provider> Interception CA" when the provider intercepts TLS.
  std::string interception_ca_;
  std::uint64_t interception_serial_ = 1;
};

// Unreliability decorator: drops a deterministic fraction of *session
// establishment* attempts (keepalive probes), modelling the flaky vantage
// points the paper's §5.2 fought with — "we were typically able to
// connect" elsewhere, "far lower reliability when connecting through
// vantage points in the Middle East, Africa and South America". Traffic on
// an established tunnel passes untouched. Draws are keyed on the wrap seed
// and a per-attempt counter, so runs reproduce exactly.
class FlakyService final : public netsim::Service {
 public:
  FlakyService(std::shared_ptr<netsim::Service> inner, double reliability,
               std::uint64_t seed);

  std::optional<std::string> handle(netsim::ServiceContext& ctx) override;

  [[nodiscard]] std::size_t dropped() const noexcept { return dropped_; }

 private:
  std::shared_ptr<netsim::Service> inner_;
  double reliability_;
  std::uint64_t seed_;
  std::uint64_t counter_ = 0;
  std::size_t dropped_ = 0;
};

// Rewrites an HTTP request the way a parse-and-regenerate proxy does:
// canonical header casing, normalized spacing, sorted-stable ordering of
// the headers it understands. Exposed for tests.
[[nodiscard]] std::string proxy_regenerate(const std::string& http_payload);

// Injects the provider's ad script into an HTML response body (the
// §6.1.3 behaviour). Exposed for tests.
[[nodiscard]] std::string inject_ad_script(const std::string& response_payload,
                                           std::string_view provider_name);

}  // namespace vpna::vpn
