// Ground-truth collection (§5.3.1): periodically fetching every test
// target from a known-clean vantage (the paper used a university IP) to
// build the whitelist that manipulation is judged against — page DOMs,
// certificate fingerprints, and the header-echo baseline.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "inet/world.h"

namespace vpna::core {

struct GroundTruth {
  // hostname -> pristine root-page DOM.
  std::map<std::string, std::string> doms;
  // hostname -> leaf certificate fingerprint.
  std::map<std::string, std::string> cert_fingerprints;
  // hostname -> final URL after redirects when fetched cleanly.
  std::map<std::string, std::string> final_urls;

  [[nodiscard]] const std::string* dom(std::string_view hostname) const;
  [[nodiscard]] const std::string* fingerprint(std::string_view hostname) const;

  // FNV-1a over the three maps, in key order. A test pins it: a site or
  // page change that moves it must bump store::kCodeEpoch, because the
  // artifact cache key does not cover the ground truth.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

// Fetches every DOM-test site, honeysite and TLS-scan host from
// `clean_host` (a direct, non-VPN client) and records the pristine state.
[[nodiscard]] GroundTruth collect_ground_truth(inet::World& world,
                                               netsim::Host& clean_host);

// The process's one ground truth, as the paper collected one from one
// clean vantage point. Collected on first use from the measurement VM of
// a fault-free, provider-less world over inet::WorldBase::shared(), under
// its own `runner.ground_truth` span and outside any shard's observation;
// that world is then dropped and only the result is kept. Thread-safe;
// never mutated once built. Drivers that fork workers touch it first so
// the workers inherit it.
[[nodiscard]] std::shared_ptr<const GroundTruth> shared_ground_truth();

}  // namespace vpna::core
