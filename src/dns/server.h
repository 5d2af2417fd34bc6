// DNS server services for the simulator:
//
//  - AuthoritativeService: serves records for one or more zones and keeps a
//    query log (source address, name, time). The paper's recursive-origin
//    test (§5.3.2) resolves a uniquely-tagged name under a domain whose
//    authoritative server records where queries arrive from.
//
//  - RecursiveResolverService: a recursive resolver (public anycast replica
//    or VPN-provided). Resolution walks the zone registry and issues real
//    nested transactions to authoritative servers, so the authoritative
//    query log sees the *resolver's* address. An optional override hook
//    models DNS manipulation by a malicious operator.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dns/message.h"
#include "netsim/host.h"
#include "netsim/network.h"
#include "util/clock.h"
#include "util/strings.h"

namespace vpna::dns {

struct ZoneRecord {
  std::vector<netsim::IpAddr> a;
  std::vector<netsim::IpAddr> aaaa;
  std::vector<std::string> txt;
};

// Maps zone apex -> authoritative nameserver address. Shared by all
// recursive resolvers in a world.
class ZoneRegistry {
 public:
  void set_authority(std::string zone, netsim::IpAddr server);

  // Longest-suffix zone match for a name: the zone `name` is in (see
  // in_zone) with the most characters.
  [[nodiscard]] std::optional<netsim::IpAddr> authority_for(
      std::string_view name) const;

  using ZoneMap = std::map<std::string, netsim::IpAddr, std::less<>>;
  [[nodiscard]] const ZoneMap& zones() const { return zones_; }

 private:
  ZoneMap zones_;
};

struct QueryLogEntry {
  util::SimTime time;
  netsim::IpAddr source;
  std::string name;
  RrType type = RrType::kA;
};

class AuthoritativeService final : public netsim::Service {
 public:
  // Canonical name -> records, hashed and looked up by view. Readers that
  // iterate sort the names themselves.
  using RecordMap = std::unordered_map<std::string, ZoneRecord,
                                       util::StringHash, std::equal_to<>>;

  AuthoritativeService() = default;
  // Also serves `shared_records` — a read-only table several services may
  // share — beneath any records added here.
  explicit AuthoritativeService(std::shared_ptr<const RecordMap> shared_records)
      : shared_records_(std::move(shared_records)) {}

  // `wildcard_zones`: zones for which any name resolves to the zone's apex
  // records (used by the tagged-hostname logging domain).
  void add_record(std::string name, ZoneRecord record);
  void add_wildcard_zone(std::string zone, ZoneRecord record);

  std::optional<std::string> handle(netsim::ServiceContext& ctx) override;

  [[nodiscard]] const std::vector<QueryLogEntry>& query_log() const noexcept {
    return query_log_;
  }
  void clear_log() noexcept { query_log_.clear(); }

 private:
  [[nodiscard]] const ZoneRecord* find_record(std::string_view name) const;

  RecordMap records_;
  std::shared_ptr<const RecordMap> shared_records_;
  // Zone apex -> records. Ordered: the first zone (in name order) that
  // holds a name answers it.
  std::map<std::string, ZoneRecord, std::less<>> wildcard_zones_;
  std::vector<QueryLogEntry> query_log_;
};

// Override hook: return a record set to answer with, or nullopt to resolve
// honestly. Used to model VPN-provided resolvers that hijack lookups.
using DnsOverrideHook =
    std::function<std::optional<ZoneRecord>(std::string_view name, RrType type)>;

class RecursiveResolverService final : public netsim::Service {
 public:
  explicit RecursiveResolverService(std::shared_ptr<const ZoneRegistry> zones);

  void set_override(DnsOverrideHook hook) { override_ = std::move(hook); }

  std::optional<std::string> handle(netsim::ServiceContext& ctx) override;

 private:
  std::shared_ptr<const ZoneRegistry> zones_;
  DnsOverrideHook override_;
};

}  // namespace vpna::dns
