#include "core/infrastructure_tests.h"

#include <cmath>

#include "dns/client.h"
#include "http/client.h"

namespace vpna::core {

RecursiveDnsOriginResult run_recursive_dns_origin_test(inet::World& world,
                                                       netsim::Host& client,
                                                       std::string tag) {
  RecursiveDnsOriginResult out;
  // Tags become DNS labels: lowercase, with whitespace/dots flattened.
  for (char& c : tag) {
    if (c == ' ' || c == '.') c = '-';
  }
  out.tag = dns::canonical_name(tag);
  const std::string name =
      out.tag + "." + std::string(inet::probe_dns_zone());

  const auto before = world.probe_authority().query_log().size();
  const auto res =
      dns::resolve_system(world.network(), client, name, dns::RrType::kA);
  out.resolved = res.ok();

  // Find the log entry for our unique tag (queries are tagged precisely so
  // concurrent probes cannot be confused).
  const auto& log = world.probe_authority().query_log();
  for (std::size_t i = before; i < log.size(); ++i) {
    if (log[i].name == name) {
      out.resolver_seen = log[i].source;
      if (const auto owner = world.whois().lookup(log[i].source))
        out.resolver_owner = owner->organisation;
      break;
    }
  }
  return out;
}

std::vector<double> PingProbeResult::anchor_series() const {
  std::vector<double> out;
  for (const auto& t : targets) {
    if (!t.name.starts_with("anchor:")) continue;
    out.push_back(t.rtt_ms.value_or(std::nan("")));
  }
  return out;
}

PingProbeResult run_ping_probe_test(inet::World& world, netsim::Host& client) {
  PingProbeResult out;

  for (const auto& anchor : world.anchors()) {
    PingTarget t;
    t.name = "anchor:" + anchor.name;
    t.addr = anchor.addr;
    t.rtt_ms = world.network().ping(client, anchor.addr);
    out.targets.push_back(std::move(t));
  }
  for (const auto& root : world.root_servers()) {
    PingTarget t;
    t.name = std::string("root:") + root.letter;
    t.addr = root.addr;
    t.rtt_ms = world.network().ping(client, root.addr);
    out.targets.push_back(std::move(t));
  }
  for (const auto& [name, addr] :
       std::initializer_list<std::pair<const char*, netsim::IpAddr>>{
           {"gdns", world.google_dns()}, {"quad9", world.quad9_dns()}}) {
    PingTarget t;
    t.name = name;
    t.addr = addr;
    t.rtt_ms = world.network().ping(client, addr);
    out.targets.push_back(std::move(t));
  }

  if (!world.root_servers().empty()) {
    out.root_traceroute =
        world.network().traceroute(client, world.root_servers()[0].addr).hops;
  }
  return out;
}

GeoApiResult run_geo_api_test(inet::World& world, netsim::Host& client) {
  GeoApiResult out;
  http::HttpClient c(world.network(), client);
  const auto res = c.fetch("http://" + std::string(inet::geo_api_host()) + "/");
  if (!res.ok()) return out;
  // Body: {"country":"XX","city":"...",...} — pull the two fields.
  const auto find_field = [&](std::string_view key) -> std::string {
    std::string marker;
    marker.reserve(key.size() + 4);
    marker += '"';
    marker += key;
    marker += "\":\"";
    const auto pos = res.body.find(marker);
    if (pos == std::string::npos) return {};
    const auto start = pos + marker.size();
    const auto end = res.body.find('"', start);
    if (end == std::string::npos) return {};
    return res.body.substr(start, end - start);
  };
  out.country_code = find_field("country");
  out.city = find_field("city");
  out.answered = !out.country_code.empty();
  return out;
}

}  // namespace vpna::core
