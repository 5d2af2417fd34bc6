// Orchestration: runs the full §5.3 suite against one vantage point of one
// provider from a freshly-restored measurement VM state, and aggregates
// per-provider reports across vantage points — the simulated counterpart
// of the paper's macOS-VM testing workflow.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/groundtruth.h"
#include "core/infrastructure_tests.h"
#include "core/leakage_tests.h"
#include "core/manipulation_tests.h"
#include "core/proxy_detection.h"
#include "core/speed_test.h"
#include "ecosystem/testbed.h"
#include "faults/profile.h"
#include "transport/error.h"

namespace vpna::core {

// Host configuration snapshot collected alongside each run (§5.3.4).
struct MetadataSnapshot {
  std::string routing_table;
  std::vector<std::string> dns_resolvers;
  std::vector<std::string> interfaces;
};

// Structured record of graceful degradation: set when a fault profile is
// active and the vantage point exhausted its retries at some stage of the
// suite. Off-profile runs never set this — a FlakyService connect failure
// under FaultProfile::kOff reports exactly as it always has.
struct Degradation {
  bool degraded = false;
  std::string stage;       // which stage gave up, e.g. "connect"
  transport::Error error;  // terminal error of the last attempt
  int attempts = 0;        // attempts spent before giving up
  // Fault attribution: injected-fault count (`faults.*` obs counters) this
  // shard accumulated during the degraded stage. 0 when no meter is bound.
  std::uint64_t faults_seen = 0;
};

// Results of the full suite against one vantage point.
struct VantagePointReport {
  std::string provider;
  std::string vantage_id;
  std::string advertised_country;
  std::string advertised_city;
  netsim::IpAddr egress_addr;
  bool connected = false;
  Degradation degradation;

  MetadataSnapshot metadata;
  DnsManipulationResult dns_manipulation;
  DomCollectionResult dom_collection;
  TlsTestResult tls;
  RecursiveDnsOriginResult recursive_origin;
  PingProbeResult pings;
  GeoApiResult geo_api;
  ProxyDetectionResult proxy;
  DnsLeakResult dns_leak;
  Ipv6LeakResult ipv6_leak;
  TunnelFailureResult tunnel_failure;
  PcapScanResult pcap;
  // Performance suite (ran=false unless the campaign enabled speed tests
  // and the shard world has link capacities provisioned).
  SpeedTestResult speed_test;
};

struct ProviderReport {
  std::string provider;
  vpn::SubscriptionType subscription = vpn::SubscriptionType::kPaid;
  bool has_custom_client = true;
  // Shard-level quarantine: the campaign engine ran out of shard attempts
  // under an active fault profile and kept a structured placeholder instead
  // of failing the run (vantage_points is empty in that case).
  bool quarantined = false;
  std::vector<VantagePointReport> vantage_points;

  [[nodiscard]] bool degraded() const {
    if (quarantined) return true;
    for (const auto& vp : vantage_points)
      if (vp.degradation.degraded) return true;
    return false;
  }

  [[nodiscard]] bool any_dns_leak() const;
  [[nodiscard]] bool any_ipv6_leak() const;
  [[nodiscard]] bool any_tunnel_failure_leak() const;
  [[nodiscard]] bool any_proxy_detected() const;
  [[nodiscard]] bool any_dom_modification() const;
};

struct RunnerOptions {
  // Max vantage points exercised per provider (the paper tested ~5 per
  // manually-driven provider). 0 = all.
  std::size_t vantage_points_per_provider = 5;
  // Leak tests only apply to first-party clients (§6.5); set false to
  // force-run them anyway.
  bool respect_client_model = true;
  // Run the expensive page/TLS collection suites.
  bool run_web_suites = true;
  double tunnel_failure_window_s = 180.0;
  // Connection attempts per vantage point before giving up. The paper's
  // flaky endpoints (§5.2) required repeated collection attempts.
  int connect_attempts = 3;
  // Active fault profile. kOff leaves every artifact byte-identical to a
  // build without the fault plane; flaky/hostile install deterministic
  // fault schedules per shard, enable transport retries/fallback, and turn
  // exhausted retries into structured degradation instead of hard failure.
  faults::FaultProfile fault_profile = faults::FaultProfile::kOff;
  // Run the capacity-aware speed-test suite per vantage point. Requires
  // link capacities on the shard world (the campaign engine provisions
  // them via ecosystem::apply_link_capacities when this is set); without
  // capacities the suite reports ran=false for every vantage point.
  bool speed_test = false;
  SpeedTestOptions speed_test_options;
};

class TestRunner {
 public:
  TestRunner(ecosystem::Testbed& testbed, RunnerOptions options = {});

  // Adopts the process's one ground truth (shared_ground_truth(),
  // collected on first use from a clean client, like the paper's
  // university-IP collection). Until then ground_truth() is empty.
  void collect_ground_truth();
  [[nodiscard]] const GroundTruth& ground_truth() const { return *truth_; }

  // Runs the suite against every (selected) vantage point of a provider.
  [[nodiscard]] ProviderReport run_provider(
      const vpn::DeployedProvider& provider);

  // Runs the full campaign over every deployed provider.
  [[nodiscard]] std::vector<ProviderReport> run_all();

 private:
  VantagePointReport run_vantage_point(const vpn::DeployedProvider& provider,
                                       const vpn::DeployedVantagePoint& vp,
                                       std::uint32_t session);

  ecosystem::Testbed& testbed_;
  RunnerOptions options_;
  std::shared_ptr<const GroundTruth> truth_;
  std::uint32_t next_session_ = 1;
};

}  // namespace vpna::core
