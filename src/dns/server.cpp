#include "dns/server.h"

#include "obs/trace.h"
#include "transport/flow.h"

namespace vpna::dns {

namespace {
const std::vector<netsim::IpAddr> kNoAddresses;
const std::vector<std::string> kNoTexts;

// The query's canonical name: the view itself when the sender already
// canonicalized it (every client does), else a folded copy in `storage`.
std::string_view query_name(const DnsQueryView& query, std::string& storage) {
  if (is_canonical(query.name)) return query.name;
  return storage = canonical_name(query.name);
}
}  // namespace

void ZoneRegistry::set_authority(std::string zone, netsim::IpAddr server) {
  zones_[canonical_name(zone)] = server;
}

std::optional<netsim::IpAddr> ZoneRegistry::authority_for(
    std::string_view name) const {
  // A zone contains the name iff it equals the name or one of the name's
  // suffixes that start after a '.'. Walk those from longest to shortest:
  // the first registered one is the longest match. Resolvers pass names
  // that are already canonical, so folding copies only when it must.
  std::string folded;
  std::string_view suffix = name;
  if (!is_canonical(name)) suffix = folded = canonical_name(name);
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

const ZoneRecord* AuthoritativeService::find_record(
    std::string_view name) const {
  if (const auto it = records_.find(name); it != records_.end())
    return &it->second;
  if (shared_records_ != nullptr) {
    if (const auto it = shared_records_->find(name);
        it != shared_records_->end())
      return &it->second;
  }
  for (const auto& [zone, rec] : wildcard_zones_)
    if (in_zone(name, zone)) return &rec;
  return nullptr;
}

std::optional<std::string> AuthoritativeService::handle(
    netsim::ServiceContext& ctx) {
  const auto query = DnsQueryView::parse(ctx.request.payload);
  if (!query) return std::nullopt;
  std::string folded;
  const std::string_view name = query_name(*query, folded);

  const auto now = ctx.network.clock().now();
  obs::count("dns.server.authoritative_queries");
  if (obs::tracing()) {
    obs::Instant serve("dns.serve", "dns");
    serve.arg("name", name);
    serve.arg("authority", "authoritative");
  }

  // Answer straight from the record table: the answers are encoded, never
  // copied.
  const std::vector<netsim::IpAddr>* addresses = &kNoAddresses;
  const std::vector<std::string>* texts = &kNoTexts;
  if (const ZoneRecord* record = find_record(name)) {
    switch (query->type) {
      case RrType::kA: addresses = &record->a; break;
      case RrType::kAaaa: addresses = &record->aaaa; break;
      case RrType::kTxt: texts = &record->txt; break;
    }
  }
  const Rcode rcode = addresses->empty() && texts->empty() ? Rcode::kNxDomain
                                                           : Rcode::kNoError;
  // The log keeps its own copy of the name.
  query_log_.push_back(
      QueryLogEntry{now, ctx.request.src, std::string(name), query->type});
  return encode_response(query->id, query->type, name, rcode, *addresses,
                         *texts);
}

RecursiveResolverService::RecursiveResolverService(
    std::shared_ptr<const ZoneRegistry> zones)
    : zones_(std::move(zones)) {}

std::optional<std::string> RecursiveResolverService::handle(
    netsim::ServiceContext& ctx) {
  const auto query = DnsQueryView::parse(ctx.request.payload);
  if (!query) return std::nullopt;
  std::string folded;
  const std::string_view name = query_name(*query, folded);

  obs::count("dns.server.recursive_queries");
  const auto answer = [&](Rcode rcode,
                          const std::vector<netsim::IpAddr>& addresses,
                          const std::vector<std::string>& texts) {
    return encode_response(query->id, query->type, name, rcode, addresses,
                           texts);
  };

  if (override_) {
    if (const auto forged = override_(name, query->type)) {
      // A manipulated answer — exactly what the §6.1 tests hunt for.
      obs::count("dns.server.forged_answers");
      if (obs::tracing()) {
        obs::Instant forged_ev("dns.forged_answer", "dns");
        forged_ev.arg("name", name);
      }
      switch (query->type) {
        case RrType::kA: return answer(Rcode::kNoError, forged->a, kNoTexts);
        case RrType::kAaaa:
          return answer(Rcode::kNoError, forged->aaaa, kNoTexts);
        case RrType::kTxt:
          return answer(Rcode::kNoError, kNoAddresses, forged->txt);
      }
    }
  }

  const auto authority = zones_->authority_for(name);
  if (!authority) return answer(Rcode::kNxDomain, kNoAddresses, kNoTexts);

  // Recurse: a genuine upstream query from the resolver host, so the
  // authoritative server's log records this resolver's address.
  transport::Flow upstream(ctx.network, ctx.host, netsim::Proto::kUdp,
                           *authority, netsim::kPortDns);
  const auto result =
      upstream.exchange(encode_query(query->id, query->type, name));
  if (!result.ok()) return answer(Rcode::kServFail, kNoAddresses, kNoTexts);
  const auto upstream_resp = DnsResponseView::parse(result.reply);
  if (!upstream_resp)
    return answer(Rcode::kServFail, kNoAddresses, kNoTexts);
  return encode_response(query->id, *upstream_resp);
}

}  // namespace vpna::dns
