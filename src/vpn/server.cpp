#include "vpn/server.h"

#include <algorithm>

#include "http/message.h"
#include "tlssim/handshake.h"
#include "transport/flow.h"
#include "util/rng.h"
#include "util/strings.h"

namespace vpna::vpn {

netsim::IpAddr tunnel_gateway_addr() { return netsim::IpAddr::v4(10, 8, 0, 1); }

netsim::IpAddr tunnel_client_addr(std::uint32_t session) {
  return netsim::IpAddr::v4(10, 8, 1 + (session >> 8),
                            static_cast<std::uint8_t>(session & 0xff));
}

VpnServerService::VpnServerService(
    std::string provider_name, ProviderBehavior behavior,
    std::shared_ptr<const dns::ZoneRegistry> zones)
    : provider_name_(std::move(provider_name)),
      behavior_(behavior),
      zones_(std::move(zones)),
      resolver_(zones_) {
  if (behavior_.manipulates_dns) {
    // The provider's resolver quietly rewrites lookups for shopping sites
    // to a partner host — the hijack pattern the DNS-manipulation test
    // exists to catch.
    resolver_.set_override(
        [](std::string_view name, dns::RrType type)
            -> std::optional<dns::ZoneRecord> {
          if (type == dns::RrType::kA &&
              util::contains(name, "bargain-basket")) {
            dns::ZoneRecord forged;
            forged.a = {netsim::IpAddr::v4(203, 0, 113, 66)};
            return forged;
          }
          return std::nullopt;
        });
  }
}

FlakyService::FlakyService(std::shared_ptr<netsim::Service> inner,
                           double reliability, std::uint64_t seed)
    : inner_(std::move(inner)), reliability_(reliability), seed_(seed) {}

std::optional<std::string> FlakyService::handle(netsim::ServiceContext& ctx) {
  // Only connection attempts are flaky; an established tunnel's data path
  // is deterministic.
  if (ctx.request.payload == VpnServerService::kKeepalive) {
    util::Rng rng(seed_ ^ (0x9e3779b97f4a7c15ULL * ++counter_));
    if (!rng.chance(reliability_)) {
      ++dropped_;
      return std::nullopt;  // the caller observes a timeout
    }
  }
  return inner_->handle(ctx);
}

std::string proxy_regenerate(const std::string& http_payload) {
  const auto req = http::HttpRequest::decode(http_payload);
  if (!req) return http_payload;
  http::HttpRequest out = *req;
  // Canonicalize header names (Title-Case) and re-order: exactly the sort
  // of inadvertent fingerprint a parse-and-regenerate proxy leaves. No
  // headers are added or removed.
  for (auto& [name, value] : out.headers) {
    bool upper_next = true;
    for (char& c : name) {
      c = upper_next ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
                     : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      upper_next = (c == '-');
    }
    // Collapse internal double spaces in values.
    std::string collapsed;
    for (char c : value) {
      if (c == ' ' && !collapsed.empty() && collapsed.back() == ' ') continue;
      collapsed += c;
    }
    value = collapsed;
  }
  std::stable_sort(out.headers.begin(), out.headers.end(),
                   [](const http::Header& a, const http::Header& b) {
                     return a.first < b.first;
                   });
  return out.encode();
}

std::string inject_ad_script(const std::string& response_payload,
                             std::string_view provider_name) {
  auto resp = http::HttpResponse::decode(response_payload);
  if (!resp || resp->status != 200) return response_payload;
  const auto ctype = resp->header("Content-Type");
  if (!ctype || !util::contains(*ctype, "text/html")) return response_payload;
  const std::size_t body_end = resp->body.rfind("</body>");
  if (body_end == std::string::npos) return response_payload;
  const std::string snippet = util::format(
      "<script src=\"http://upgrade.%s/overlay.js\"></script>"
      "<div class=\"vpn-upsell\">Enjoying the free tier? Upgrade for "
      "unlimited bandwidth!</div>",
      util::to_lower(provider_name).c_str());
  resp->body.insert(body_end, snippet);
  return resp->encode();
}

std::optional<std::string> VpnServerService::handle_internal(
    netsim::ServiceContext& ctx, netsim::Packet& inner) {
  // Only the gateway resolver lives inside the tunnel.
  if (inner.dst == tunnel_gateway_addr() && inner.proto == netsim::Proto::kUdp &&
      inner.dst_port == netsim::kPortDns) {
    // Run the resolver as if it were bound on this host; upstream queries
    // originate from the vantage point, which is what the recursive-origin
    // test observes. The resolver only reads the packet, so an unanswered
    // query is still intact for forward().
    netsim::ServiceContext inner_ctx{ctx.network, ctx.host, inner};
    return resolver_.handle(inner_ctx);
  }
  return std::nullopt;
}

std::optional<std::string> VpnServerService::forward(
    netsim::ServiceContext& ctx, netsim::Packet fwd) {
  // The reply travels back from the inner packet's destination to its
  // sender; take that addressing before NAT rewrites the source.
  const netsim::Proto proto = fwd.proto;
  const std::uint16_t dst_port = fwd.dst_port;
  netsim::Packet reply;
  reply.src = fwd.dst;
  reply.dst = fwd.src;
  reply.proto = proto;
  reply.src_port = dst_port;
  reply.dst_port = fwd.src_port;

  // NAT: the inner packet egresses with the vantage point's own address.
  const auto egress4 = ctx.host.primary_addr(netsim::IpFamily::kV4);
  const auto egress6 = ctx.host.primary_addr(netsim::IpFamily::kV6);
  if (fwd.dst.is_v4()) {
    if (!egress4) return std::nullopt;
    fwd.src = *egress4;
  } else {
    if (!behavior_.supports_ipv6 || !egress6) return std::nullopt;
    fwd.src = *egress6;
  }
  fwd.src_port = ctx.host.next_ephemeral_port();

  // TLS re-termination: answer ClientHellos ourselves with a provider CA
  // chain instead of contacting the real site.
  if (behavior_.intercepts_tls && proto == netsim::Proto::kTcp &&
      dst_port == netsim::kPortHttps) {
    if (const auto sni = tlssim::decode_client_hello(fwd.payload)) {
      const auto chain = tlssim::issue_chain(
          *sni, provider_name_ + " Interception CA", interception_serial_++);
      reply.payload = tlssim::encode_server_hello(chain);
      return netsim::encode_inner(std::move(reply));
    }
  }

  // Transparent proxy: parse and regenerate outbound HTTP.
  if (behavior_.transparent_proxy && proto == netsim::Proto::kTcp &&
      dst_port == netsim::kPortHttp) {
    fwd.payload = proxy_regenerate(fwd.payload);
  }

  // Egress flow: source pinned to the NAT slot allocated above, inner TTL
  // preserved so traceroute probes expire inside the world as they should.
  transport::Flow flow(ctx.network, ctx.host, proto, fwd.dst, dst_port);
  flow.set_src(fwd.src);
  flow.pin_src_port(fwd.src_port);
  flow.set_ttl(fwd.ttl);
  auto result = flow.exchange(std::move(fwd.payload));
  // A flow that never got on the wire leaves `status` at its kOk default;
  // without this guard the switch below would read that as a successful
  // exchange and synthesize an empty reply (the silent-zero hazard).
  if (!result.error.attempted()) return std::nullopt;

  switch (result.status) {
    case netsim::TransactStatus::kOk:
      if (proto == netsim::Proto::kIcmpEcho)
        reply.proto = netsim::Proto::kIcmpEchoReply;
      reply.payload = std::move(result.reply);
      break;
    case netsim::TransactStatus::kTtlExpired:
      reply.proto = netsim::Proto::kIcmpTimeExceeded;
      reply.src = result.responder;  // the router that dropped it
      break;
    default:
      return std::nullopt;  // unreachable beyond the tunnel: silence
  }

  // Ad injection on HTTP responses (the paper's single observed injector).
  if (behavior_.injects_content && proto == netsim::Proto::kTcp &&
      dst_port == netsim::kPortHttp && !reply.payload.empty()) {
    reply.payload = inject_ad_script(reply.payload, provider_name_);
  }

  return netsim::encode_inner(std::move(reply));
}

std::optional<std::string> VpnServerService::handle(
    netsim::ServiceContext& ctx) {
  if (ctx.request.payload == kKeepalive) return std::string(kKeepaliveAck);

  // The outer payload is ours to consume: decode strips the tunnel header
  // in place and the inner packet owns the bytes from here on.
  auto inner = netsim::decode_inner(std::move(ctx.request.payload));
  if (!inner) return std::nullopt;

  if (auto internal = handle_internal(ctx, *inner)) {
    netsim::Packet reply;
    reply.src = inner->dst;
    reply.dst = inner->src;
    reply.proto = inner->proto;
    reply.src_port = inner->dst_port;
    reply.dst_port = inner->src_port;
    reply.payload = std::move(*internal);
    return netsim::encode_inner(std::move(reply));
  }

  return forward(ctx, std::move(*inner));
}

}  // namespace vpna::vpn
