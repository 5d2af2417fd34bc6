#include "analysis/traceroute_locate.h"

#include <algorithm>

#include "util/strings.h"

namespace vpna::analysis {

std::optional<std::string> city_from_hop_hostname(std::string_view hostname) {
  // Convention: "<role>.<city-slug>.<operator>.example" — the city is the
  // second label.
  const auto labels = util::split(hostname, '.');
  if (labels.size() < 3) return std::nullopt;
  if (labels[0] != "edge" && labels[0] != "core1") return std::nullopt;
  if (labels[1].empty()) return std::nullopt;
  return std::string(labels[1]);
}

TracerouteLocation locate_by_traceroute(inet::World& world,
                                        netsim::Host& client,
                                        std::size_t target_count) {
  TracerouteLocation out;
  std::size_t targets = 0;
  // Spread targets: stride across the anchor list so the traceroutes fan
  // out in different directions.
  const auto anchors = world.anchors();
  const std::size_t stride = std::max<std::size_t>(1, anchors.size() / 3);
  for (std::size_t i = 0; i < anchors.size() && targets < target_count;
       i += stride, ++targets) {
    const auto route = world.network().traceroute(client, anchors[i].addr);
    int weight = 4;  // first transit hop counts most: it's the VP's edge
    for (const auto& hop : route.hops) {
      if (!hop.router) continue;
      const auto hostname = world.reverse_dns(*hop.router);
      if (!hostname) continue;
      out.hop_hostnames.push_back(*hostname);
      if (const auto city = city_from_hop_hostname(*hostname)) {
        out.city_votes[*city] += weight;
      }
      weight = std::max(1, weight - 1);
    }
  }

  int best = 0;
  for (const auto& [city, votes] : out.city_votes) {
    if (votes > best) {
      best = votes;
      out.best_city = city;
    }
  }
  return out;
}

bool traceroute_refutes_location(const TracerouteLocation& located,
                                 std::string_view advertised_city) {
  if (!located.best_city) return false;
  // Compare in slug space.
  std::string advertised_slug;
  for (const char c : advertised_city) {
    if (std::isalnum(static_cast<unsigned char>(c)))
      advertised_slug +=
          static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    else if (!advertised_slug.empty() && advertised_slug.back() != '-')
      advertised_slug += '-';
  }
  return *located.best_city != advertised_slug;
}

}  // namespace vpna::analysis
