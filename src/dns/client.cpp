#include "dns/client.h"

#include "obs/trace.h"
#include "transport/flow.h"

namespace vpna::dns {

LookupResult query(netsim::Network& net, netsim::Host& host,
                   const netsim::IpAddr& server, std::string_view name,
                   RrType type) {
  obs::Span span("dns.query", "dns");
  if (span) {
    span.arg("name", name);
    span.arg("server", server.str());
  }

  LookupResult out;
  out.server = server;

  DnsQuery q;
  q.id = static_cast<std::uint16_t>(net.rng().next() & 0xffff);
  q.type = type;
  q.name = canonical_name(name);

  transport::Flow flow(net, host, netsim::Proto::kUdp, server,
                       netsim::kPortDns);
  const auto result = flow.exchange(q.encode());
  out.error = result.error;
  out.rtt_ms = result.rtt_ms;

  obs::count("dns.lookups");
  obs::observe("dns.rtt_ms", out.rtt_ms, obs::kRttBucketsMs);
  const auto finish = [&span](const LookupResult& r) {
    if (!span) return;
    span.arg("error", transport::error_name(r.error));
    span.arg("rcode", static_cast<std::int64_t>(r.rcode));
    span.arg("answers", static_cast<std::int64_t>(r.addresses.size()));
  };
  if (!result.ok()) {
    obs::count("dns.failures");
    finish(out);
    return out;
  }

  auto resp = DnsResponse::decode(result.reply);
  if (!resp || resp->id != q.id) {
    out.error = transport::Error::parse();
    obs::count("dns.failures");
    finish(out);
    return out;
  }
  out.rcode = resp->rcode;
  out.addresses = std::move(resp->addresses);
  out.texts = std::move(resp->texts);
  out.error = resp->rcode == Rcode::kNoError
                  ? transport::Error::none()
                  : transport::Error::upstream(
                        static_cast<std::uint16_t>(resp->rcode));
  if (!out.ok()) obs::count("dns.failures");
  finish(out);
  return out;
}

LookupResult resolve_system(netsim::Network& net, netsim::Host& host,
                            std::string_view name, RrType type) {
  LookupResult last;
  for (const auto& server : host.dns_servers()) {
    last = query(net, host, server, name, type);
    // An intact answer — even NXDOMAIN — ends the walk; transport and
    // parse failures mean the next configured server might still help.
    if (last.error.answered()) return last;
  }
  return last;  // all servers failed (or none configured: not-attempted)
}

LookupResult resolve_browser(netsim::Network& net, netsim::Host& host,
                             std::string_view name, RrType type) {
  auto& cache = host.host_cache();
  const auto rr = static_cast<std::uint16_t>(type);
  if (const auto* hit = cache.find(name, rr, net.clock().now())) {
    obs::count("dns.host_cache_hits");
    LookupResult out;
    out.error = transport::Error::none();
    out.rcode = Rcode::kNoError;
    out.addresses = hit->addresses;
    out.server = hit->server;
    return out;
  }
  LookupResult out = resolve_system(net, host, name, type);
  if (out.ok() && !out.addresses.empty())
    cache.put(name, {rr, out.addresses, out.server,
                     net.clock().now() + kHostCacheLifetime});
  return out;
}

}  // namespace vpna::dns
