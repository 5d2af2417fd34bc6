#include "vpn/client.h"

#include "obs/trace.h"
#include "transport/flow.h"
#include "vpn/server.h"

namespace vpna::vpn {

namespace {
constexpr char kTunIface[] = "tun0";
constexpr char kKillSwitchLabel[] = "vpn-killswitch";
}  // namespace

std::string_view client_state_name(ClientState s) noexcept {
  switch (s) {
    case ClientState::kDisconnected: return "disconnected";
    case ClientState::kConnected: return "connected";
    case ClientState::kTunnelFailedClosed: return "failed-closed";
    case ClientState::kTunnelFailedOpen: return "failed-open";
  }
  return "?";
}

VpnClient::VpnClient(netsim::Network& net, netsim::Host& host,
                     ProviderSpec spec, std::uint32_t session)
    : net_(net), host_(host), spec_(std::move(spec)), session_(session) {
  kill_switch_enabled_ = spec_.behavior.kill_switch_default_on;
}

VpnClient::~VpnClient() {
  if (state_ != ClientState::kDisconnected) disconnect();
}

ConnectResult VpnClient::connect(const netsim::IpAddr& server_addr) {
  obs::Span span("vpn.connect", "vpn");
  if (span) {
    span.arg("provider", spec_.name);
    span.arg("server", server_addr.str());
  }

  ConnectResult out;
  if (state_ != ClientState::kDisconnected) {
    out.error_message = "already connected";
    out.error = transport::Error::not_attempted();
    return out;
  }
  server_ = server_addr;

  // Handshake: a keepalive must round-trip before we commit.
  const auto port = protocol_port(spec_.protocols.empty()
                                      ? TunnelProtocol::kOpenVpn
                                      : spec_.protocols.front());
  transport::Flow hello(net_, host_, netsim::Proto::kUdp, server_, port);
  const auto res = hello.exchange(std::string(VpnServerService::kKeepalive));
  if (!res.ok() || res.reply != VpnServerService::kKeepaliveAck) {
    // Carry the flow's own taxonomy through; a delivered-but-garbled ack is
    // a parse failure, not a zero-value transport success.
    out.error = !res.error.ok() ? res.error : transport::Error::parse();
    out.error_message =
        "server unreachable: " + transport::error_name(out.error);
    obs::count("vpn.connect.fail");
    if (span) span.arg("result", out.error_message);
    return out;
  }

  assigned_ = tunnel_client_addr(session_);
  install_tunnel_state();
  state_ = ClientState::kConnected;
  first_keepalive_failure_.reset();
  out.connected = true;
  out.assigned_addr = assigned_;
  obs::count("vpn.connect.ok");
  if (span) span.arg("result", "connected");
  return out;
}

void VpnClient::install_tunnel_state() {
  const auto port = protocol_port(spec_.protocols.empty()
                                      ? TunnelProtocol::kOpenVpn
                                      : spec_.protocols.front());

  // tun interface with the assigned tunnel-internal address.
  host_.add_interface(kTunIface, assigned_, std::nullopt);

  // Pinned host route to the VPN server via the physical interface, then a
  // tunnel default that wins over the physical default on prefix length.
  host_.routes().add(netsim::Route{netsim::Cidr(server_, 32), "eth0",
                                   std::nullopt, 0});
  host_.routes().add(netsim::Route{
      netsim::Cidr(netsim::IpAddr::v4(0, 0, 0, 0), 0), kTunIface,
      tunnel_gateway_addr(), 0});
  if (spec_.behavior.supports_ipv6) {
    host_.routes().add(netsim::Route{netsim::Cidr(netsim::IpAddr::v6({}), 0),
                                     kTunIface, std::nullopt, 0});
  } else if (spec_.behavior.blocks_ipv6) {
    netsim::FwRule block6;
    block6.action = netsim::FwAction::kDeny;
    block6.direction = netsim::Direction::kOut;
    block6.family = netsim::IpFamily::kV6;
    block6.label = kKillSwitchLabel;
    host_.firewall().add_rule(block6);
  }
  // else: IPv6 flows untouched through eth0 — the Table 6 leak.

  // Resolver rewrite. Clients that skip this leave interface-scoped DNS
  // behind (the DNS-leak failure mode): queries to the old resolvers still
  // route via eth0 because of the scoped host routes such clients add.
  saved_dns_ = host_.dns_servers();
  if (spec_.behavior.redirects_dns) {
    host_.dns_servers() = {tunnel_gateway_addr()};
  } else {
    for (const auto& resolver : saved_dns_) {
      host_.routes().add(netsim::Route{netsim::Cidr(resolver, 32), "eth0",
                                       std::nullopt, 0});
    }
  }

  // The data path: encapsulate anything routed into tun0 toward the server.
  const auto server = server_;
  const auto assigned = assigned_;
  host_.set_tunnel_hook(
      kTunIface,
      [server, assigned, port](netsim::Packet&& inner)
          -> std::optional<netsim::Packet> {
        if (inner.src.is_unspecified() && inner.dst.is_v4())
          inner.src = assigned;
        netsim::Packet outer;
        outer.dst = server;
        outer.proto = netsim::Proto::kUdp;
        outer.src_port = 49999;
        outer.dst_port = port;
        outer.payload = netsim::encode_inner(std::move(inner));
        return outer;
      });

  net_.refresh_host(host_);
}

void VpnClient::remove_tunnel_state() {
  host_.clear_tunnel_hook();
  host_.routes().remove_interface(kTunIface);
  host_.routes().remove(netsim::Cidr(server_, 32), "eth0");
  if (!spec_.behavior.redirects_dns) {
    for (const auto& resolver : saved_dns_)
      host_.routes().remove(netsim::Cidr(resolver, 32), "eth0");
  }
  host_.remove_interface(kTunIface);
  host_.firewall().remove_label(kKillSwitchLabel);
  host_.dns_servers() = saved_dns_;
  net_.refresh_host(host_);
}

void VpnClient::disconnect() {
  if (state_ == ClientState::kDisconnected) return;
  if (obs::tracing()) {
    obs::Instant ev("vpn.disconnect", "vpn");
    ev.arg("provider", spec_.name);
    ev.arg("from_state", client_state_name(state_));
  }
  remove_tunnel_state();
  state_ = ClientState::kDisconnected;
  first_keepalive_failure_.reset();
}

void VpnClient::set_kill_switch(bool enabled) {
  if (!spec_.behavior.has_kill_switch) return;
  kill_switch_enabled_ = enabled;
}

void VpnClient::fail_open() {
  // The tunnel process exits and cleans up after itself: routes revert to
  // the physical interface and traffic flows unprotected.
  remove_tunnel_state();
  state_ = ClientState::kTunnelFailedOpen;
}

void VpnClient::fail_closed() {
  // Keep tunnel routes, and additionally block everything except the VPN
  // server so reconnection can succeed.
  netsim::FwRule keep;
  keep.action = netsim::FwAction::kAllow;
  keep.direction = netsim::Direction::kOut;
  keep.remote_addr = server_;
  keep.label = kKillSwitchLabel;
  host_.firewall().add_rule(keep);
  netsim::FwRule deny;
  deny.action = netsim::FwAction::kDeny;
  deny.direction = netsim::Direction::kOut;
  deny.label = kKillSwitchLabel;
  host_.firewall().add_rule(deny);
  state_ = ClientState::kTunnelFailedClosed;
}

void VpnClient::tick() {
  if (state_ != ClientState::kConnected) return;

  const auto port = protocol_port(spec_.protocols.empty()
                                      ? TunnelProtocol::kOpenVpn
                                      : spec_.protocols.front());
  netsim::TransactOptions topts;
  topts.timeout_ms = 2000.0;  // keepalive timeout
  transport::Flow ka(net_, host_, netsim::Proto::kUdp, server_, port, topts);
  const auto res = ka.exchange(std::string(VpnServerService::kKeepalive));

  if (res.ok() && res.reply == VpnServerService::kKeepaliveAck) {
    first_keepalive_failure_.reset();
    return;
  }

  const auto now = net_.clock().now();
  if (!first_keepalive_failure_) {
    first_keepalive_failure_ = now;
    return;
  }
  const double silent_s = (now - *first_keepalive_failure_).seconds();
  if (silent_s < spec_.behavior.failure_detect_seconds) return;

  // Tunnel declared dead: record the failure transition the §6.5 test
  // measures before applying the provider's policy.
  if (obs::tracing()) {
    obs::Instant ev("vpn.tunnel_failure", "vpn");
    ev.arg("provider", spec_.name);
    ev.arg("silent_s", static_cast<std::int64_t>(silent_s));
  }
  if (kill_switch_active() && !spec_.behavior.kill_switch_per_app_only) {
    obs::count("vpn.tunnel_failure.closed");
    fail_closed();
  } else if (spec_.behavior.fails_open) {
    // Either no (active) kill switch, or an app-scoped one: the chosen
    // application gets terminated but the rest of the system's traffic
    // falls back to the physical interface — a leak all the same.
    obs::count("vpn.tunnel_failure.open");
    fail_open();
  }
  // else: the client hangs with dead tunnel routes in place — accidentally
  // fail-closed (traffic goes nowhere), which the failure test also sees
  // as non-leaking.
}

}  // namespace vpna::vpn
