#include "dns/server.h"

#include "obs/trace.h"
#include "transport/flow.h"

namespace vpna::dns {

void ZoneRegistry::set_authority(std::string zone, netsim::IpAddr server) {
  zones_[canonical_name(zone)] = server;
}

std::optional<netsim::IpAddr> ZoneRegistry::authority_for(
    std::string_view name) const {
  // A zone contains the name iff it equals the name or one of the name's
  // suffixes that start after a '.'. Walk those from longest to shortest:
  // the first registered one is the longest match.
  const std::string n = canonical_name(name);
  std::string_view suffix = n;
  while (true) {
    if (const auto it = zones_.find(suffix); it != zones_.end())
      return it->second;
    const std::size_t dot = suffix.find('.');
    if (dot == std::string_view::npos) return std::nullopt;
    suffix.remove_prefix(dot + 1);
  }
}

void AuthoritativeService::add_record(std::string name, ZoneRecord record) {
  records_[canonical_name(name)] = std::move(record);
}

void AuthoritativeService::add_wildcard_zone(std::string zone,
                                             ZoneRecord record) {
  wildcard_zones_[canonical_name(zone)] = std::move(record);
}

std::optional<std::string> AuthoritativeService::handle(
    netsim::ServiceContext& ctx) {
  const auto query = DnsQuery::decode(ctx.request.payload);
  if (!query) return std::nullopt;

  query_log_.push_back(QueryLogEntry{ctx.network.clock().now(),
                                     ctx.request.src, query->name,
                                     query->type});
  obs::count("dns.server.authoritative_queries");
  if (obs::tracing()) {
    obs::Instant serve("dns.serve", "dns");
    serve.arg("name", query->name);
    serve.arg("authority", "authoritative");
  }

  DnsResponse resp;
  resp.id = query->id;
  resp.type = query->type;
  resp.name = query->name;

  const ZoneRecord* record = nullptr;
  if (const auto it = records_.find(query->name); it != records_.end()) {
    record = &it->second;
  } else {
    for (const auto& [zone, rec] : wildcard_zones_) {
      if (in_zone(query->name, zone)) {
        record = &rec;
        break;
      }
    }
  }

  if (record == nullptr) {
    resp.rcode = Rcode::kNxDomain;
    return resp.encode();
  }
  switch (query->type) {
    case RrType::kA:
      resp.addresses = record->a;
      break;
    case RrType::kAaaa:
      resp.addresses = record->aaaa;
      break;
    case RrType::kTxt:
      resp.texts = record->txt;
      break;
  }
  if (resp.addresses.empty() && resp.texts.empty())
    resp.rcode = Rcode::kNxDomain;
  return resp.encode();
}

RecursiveResolverService::RecursiveResolverService(
    std::shared_ptr<const ZoneRegistry> zones)
    : zones_(std::move(zones)) {}

std::optional<std::string> RecursiveResolverService::handle(
    netsim::ServiceContext& ctx) {
  const auto query = DnsQuery::decode(ctx.request.payload);
  if (!query) return std::nullopt;

  obs::count("dns.server.recursive_queries");

  DnsResponse resp;
  resp.id = query->id;
  resp.type = query->type;
  resp.name = query->name;

  if (override_) {
    if (const auto forged = override_(query->name, query->type)) {
      // A manipulated answer — exactly what the §6.1 tests hunt for.
      obs::count("dns.server.forged_answers");
      if (obs::tracing()) {
        obs::Instant forged_ev("dns.forged_answer", "dns");
        forged_ev.arg("name", query->name);
      }
      switch (query->type) {
        case RrType::kA: resp.addresses = forged->a; break;
        case RrType::kAaaa: resp.addresses = forged->aaaa; break;
        case RrType::kTxt: resp.texts = forged->txt; break;
      }
      return resp.encode();
    }
  }

  const auto authority = zones_->authority_for(query->name);
  if (!authority) {
    resp.rcode = Rcode::kNxDomain;
    return resp.encode();
  }

  // Recurse: a genuine upstream query from the resolver host, so the
  // authoritative server's log records this resolver's address.
  transport::Flow upstream(ctx.network, ctx.host, netsim::Proto::kUdp,
                           *authority, netsim::kPortDns);
  const auto result = upstream.exchange(query->encode());
  if (!result.ok()) {
    resp.rcode = Rcode::kServFail;
    return resp.encode();
  }
  auto upstream_resp = DnsResponse::decode(result.reply);
  if (!upstream_resp) {
    resp.rcode = Rcode::kServFail;
    return resp.encode();
  }
  upstream_resp->id = query->id;
  return upstream_resp->encode();
}

}  // namespace vpna::dns
