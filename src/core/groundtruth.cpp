#include "core/groundtruth.h"

#include "dns/client.h"
#include "ecosystem/testbed.h"
#include "http/client.h"
#include "obs/trace.h"
#include "tlssim/handshake.h"
#include "transport/policy.h"
#include "util/rng.h"

namespace vpna::core {

const std::string* GroundTruth::dom(std::string_view hostname) const {
  const auto it = doms.find(std::string(hostname));
  return it == doms.end() ? nullptr : &it->second;
}

const std::string* GroundTruth::fingerprint(std::string_view hostname) const {
  const auto it = cert_fingerprints.find(std::string(hostname));
  return it == cert_fingerprints.end() ? nullptr : &it->second;
}

std::uint64_t GroundTruth::fingerprint() const {
  std::string canon;
  for (const auto* map : {&doms, &cert_fingerprints, &final_urls}) {
    for (const auto& [key, value] : *map) {
      canon += key;
      canon.push_back('\x1f');
      canon += value;
      canon.push_back('\x1f');
    }
    canon.push_back('\x1e');
  }
  return util::fnv1a(canon);
}

GroundTruth collect_ground_truth(inet::World& world, netsim::Host& clean_host) {
  GroundTruth gt;
  http::HttpClient client(world.network(), clean_host);

  const auto record_site = [&](std::string_view hostname, bool collect_tls) {
    const std::string url = "http://" + std::string(hostname) + "/";
    const auto res = client.fetch(url);
    if (res.ok()) {
      gt.doms[std::string(hostname)] = res.body;
      gt.final_urls[std::string(hostname)] = res.final_url.str();
    }
    if (collect_tls) {
      const auto lookup = dns::resolve_browser(world.network(), clean_host,
                                               hostname, dns::RrType::kA);
      if (lookup.ok() && !lookup.addresses.empty()) {
        const auto hs =
            tlssim::tls_handshake(world.network(), clean_host,
                                  lookup.addresses.front(), hostname,
                                  world.ca_store());
        if (hs.completed() && hs.chain->leaf() != nullptr)
          gt.cert_fingerprints[std::string(hostname)] =
              hs.chain->leaf()->key_fingerprint;
      }
    }
  };

  for (const auto& site : inet::dom_test_sites())
    record_site(site.hostname, site.https_available);
  for (const auto& site : inet::tls_scan_sites())
    record_site(site.hostname, site.https_available);
  record_site(inet::honeysite_plain(), false);
  record_site(inet::honeysite_ads(), false);
  return gt;
}

std::shared_ptr<const GroundTruth> shared_ground_truth() {
  static const std::shared_ptr<const GroundTruth> truth = [] {
    // Whichever shard touches it first must not trace or count its work,
    // nor lend it the shard's fault-profile session policy; the profiler
    // still records the one collection.
    obs::ScopedObservation unobserved(nullptr, nullptr);
    transport::ScopedSessionPolicy no_policy(nullptr);
    obs::Span span("runner.ground_truth", "core");
    auto tb = ecosystem::build_testbed_subset(
        {}, 20181031, ecosystem::shared_backbone_plane());
    return std::make_shared<const GroundTruth>(
        collect_ground_truth(*tb.world, *tb.client));
  }();
  return truth;
}

}  // namespace vpna::core
