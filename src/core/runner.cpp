#include "core/runner.h"

#include <stdexcept>

#include "core/parallel_campaign.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "transport/policy.h"
#include "util/strings.h"
#include "vpn/client.h"

namespace vpna::core {

bool ProviderReport::any_dns_leak() const {
  for (const auto& vp : vantage_points)
    if (vp.dns_leak.leaked()) return true;
  return false;
}

bool ProviderReport::any_ipv6_leak() const {
  for (const auto& vp : vantage_points)
    if (vp.ipv6_leak.leaked()) return true;
  return false;
}

bool ProviderReport::any_tunnel_failure_leak() const {
  for (const auto& vp : vantage_points)
    if (vp.tunnel_failure.leaked()) return true;
  return false;
}

bool ProviderReport::any_proxy_detected() const {
  for (const auto& vp : vantage_points)
    if (vp.proxy.proxy_detected) return true;
  return false;
}

bool ProviderReport::any_dom_modification() const {
  for (const auto& vp : vantage_points)
    if (!vp.dom_collection.modified_doms().empty()) return true;
  return false;
}

TestRunner::TestRunner(ecosystem::Testbed& testbed, RunnerOptions options)
    : testbed_(testbed),
      options_(options),
      truth_(std::make_shared<const GroundTruth>()) {}

void TestRunner::collect_ground_truth() { truth_ = shared_ground_truth(); }

namespace {

MetadataSnapshot collect_metadata(const netsim::Host& host) {
  MetadataSnapshot meta;
  meta.routing_table = host.routes().dump();
  for (const auto& server : host.dns_servers())
    meta.dns_resolvers.push_back(server.str());
  for (const auto& iface : host.interfaces()) {
    std::string desc = iface.name;
    if (iface.addr4) desc += " inet " + iface.addr4->str();
    if (iface.addr6) desc += " inet6 " + iface.addr6->str();
    if (!iface.up) desc += " (down)";
    meta.interfaces.push_back(std::move(desc));
  }
  return meta;
}

}  // namespace

VantagePointReport TestRunner::run_vantage_point(
    const vpn::DeployedProvider& provider,
    const vpn::DeployedVantagePoint& vp, std::uint32_t session) {
  obs::Span vp_span("runner.vantage_point", "core");
  if (vp_span) {
    vp_span.arg("provider", provider.spec.name);
    vp_span.arg("vantage", vp.spec.id);
  }
  // Runs `fn` under a span named after the test: a sim-time span when
  // traced, a wall-clock profiler phase under --profile.
  const auto timed = [](std::string_view name, auto&& fn) {
    obs::Span span(name, "test");
    return fn();
  };

  VantagePointReport report;
  report.provider = provider.spec.name;
  report.vantage_id = vp.spec.id;
  report.advertised_country = vp.spec.advertised_country;
  report.advertised_city = vp.spec.advertised_city;
  report.egress_addr = vp.addr;

  auto& world = *testbed_.world;
  auto& client = *testbed_.client;

  // Fresh VM state between vantage points: the capture is cleared and any
  // residue from the previous run was removed at disconnect.
  client.capture().clear();

  // Fault attribution baseline: injected-fault count before this vantage
  // point ran, so a degradation record can report the delta.
  const auto faults_now = [] {
    const auto* m = obs::meter();
    return m != nullptr ? m->counter_prefix_sum("faults.") : std::uint64_t{0};
  };
  const std::uint64_t faults_before = faults_now();

  vpn::VpnClient vpn_client(world.network(), client, provider.spec, session);
  // Flaky endpoints (§5.2) get retried before being written off.
  const int attempts = std::max(1, options_.connect_attempts);
  vpn::ConnectResult connect;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    connect = vpn_client.connect(vp.addr);
    if (connect.connected) break;
  }
  report.connected = connect.connected;
  obs::count("runner.vantage_points");
  if (!connect.connected) {
    obs::count("runner.connect_failures");
    // Under a fault profile an exhausted connect is graceful degradation:
    // keep the structured outcome in the payload. Off-profile failures
    // (FlakyService et al.) report exactly as before — no degradation
    // record, so kOff artifacts stay byte-identical.
    if (options_.fault_profile != faults::FaultProfile::kOff) {
      report.degradation.degraded = true;
      report.degradation.stage = "connect";
      report.degradation.error = connect.error;
      report.degradation.attempts = attempts;
      report.degradation.faults_seen = faults_now() - faults_before;
      obs::count("runner.degraded_vantage_points");
    }
    if (vp_span) vp_span.arg("connected", "false");
    return report;
  }

  report.metadata = collect_metadata(client);

  // Interception & manipulation suites.
  report.dns_manipulation = timed("test.dns_manipulation", [&] {
    return run_dns_manipulation_test(world, client);
  });
  if (options_.run_web_suites) {
    report.dom_collection = timed("test.dom_collection", [&] {
      return run_dom_collection_test(world, client, *truth_);
    });
    report.tls =
        timed("test.tls", [&] { return run_tls_test(world, client, *truth_); });
  }
  report.proxy = timed("test.proxy_detection", [&] {
    return run_proxy_detection_test(world, client);
  });

  // Infrastructure suites.
  report.recursive_origin = timed("test.recursive_origin", [&] {
    return run_recursive_dns_origin_test(
        world, client,
        util::format("t%u-%s-%s", session, provider.spec.name.c_str(),
                     vp.spec.id.c_str()));
  });
  report.pings =
      timed("test.pings", [&] { return run_ping_probe_test(world, client); });
  report.geo_api =
      timed("test.geo_api", [&] { return run_geo_api_test(world, client); });

  // Leakage suites. DNS/IPv6 leak tests only apply to first-party clients
  // (manual OpenVPN configurations require hand-set DNS/IPv6 state, §6.5).
  if (provider.spec.has_custom_client || !options_.respect_client_model) {
    report.dns_leak =
        timed("test.dns_leak", [&] { return run_dns_leak_test(world, client); });
    report.ipv6_leak = timed("test.ipv6_leak",
                             [&] { return run_ipv6_leak_test(world, client); });
  }
  report.tunnel_failure = timed("test.tunnel_failure", [&] {
    return run_tunnel_failure_test(world, client, vpn_client,
                                   options_.tunnel_failure_window_s);
  });

  report.pcap = timed("test.pcap_scan", [&] { return run_pcap_scan(client); });

  // Performance suite: measured while the tunnel is still up, like the
  // paper's in-tunnel collection. No-op (ran=false) without capacities.
  if (options_.speed_test) {
    report.speed_test = timed("test.speed_test", [&] {
      return run_speed_test(world, client, vp.addr,
                            options_.speed_test_options);
    });
  }

  // Per-suite outcome counters: the campaign-level pass/fail surface.
  if (report.dns_manipulation.manipulation_detected())
    obs::count("test.dns_manipulation.detected");
  if (!report.dom_collection.modified_doms().empty())
    obs::count("test.dom_collection.modified");
  if (report.tls.interception_count() > 0) obs::count("test.tls.intercepted");
  if (report.proxy.proxy_detected) obs::count("test.proxy_detection.detected");
  if (report.dns_leak.leaked()) obs::count("test.dns_leak.leaked");
  if (report.ipv6_leak.leaked()) obs::count("test.ipv6_leak.leaked");
  if (report.tunnel_failure.leaked()) obs::count("test.tunnel_failure.leaked");

  vpn_client.disconnect();
  return report;
}

ProviderReport TestRunner::run_provider(const vpn::DeployedProvider& provider) {
  obs::Span span("runner.provider", "core");
  if (span) span.arg("provider", provider.spec.name);

  ProviderReport report;
  report.provider = provider.spec.name;
  report.subscription = provider.spec.subscription;
  report.has_custom_client = provider.spec.has_custom_client;

  // Vantage-point selection: maximize geographic (country) diversity, as
  // the paper's manual procedure did.
  std::vector<const vpn::DeployedVantagePoint*> selected;
  if (options_.vantage_points_per_provider == 0 ||
      provider.vantage_points.size() <= options_.vantage_points_per_provider) {
    for (const auto& vp : provider.vantage_points) selected.push_back(&vp);
  } else {
    std::set<std::string> countries;
    for (const auto& vp : provider.vantage_points) {
      if (selected.size() >= options_.vantage_points_per_provider) break;
      if (countries.insert(vp.spec.advertised_country).second)
        selected.push_back(&vp);
    }
    for (const auto& vp : provider.vantage_points) {
      if (selected.size() >= options_.vantage_points_per_provider) break;
      if (std::find(selected.begin(), selected.end(), &vp) == selected.end())
        selected.push_back(&vp);
    }
  }

  for (const auto* vp : selected)
    report.vantage_points.push_back(
        run_vantage_point(provider, *vp, next_session_++));
  return report;
}

std::vector<ProviderReport> TestRunner::run_all() {
  std::vector<ProviderReport> out;
  out.reserve(testbed_.providers.size());
  for (const auto& provider : testbed_.providers)
    out.push_back(run_provider(provider));
  return out;
}

// --- one provider's shard (declared in core/parallel_campaign.h) ----------

namespace {

// The shard body shared by the plain and traced runs; assumes any desired
// obs binding is already installed on the calling thread.
ProviderReport run_shard_body(const std::string& name,
                              std::uint64_t campaign_seed,
                              const RunnerOptions& options,
                              ecosystem::Testbed& shard) {
  // Fault profiles arm transport-level resilience for the whole shard:
  // every flow the shard builds adopts the profile's retry/fallback policy.
  // kOff installs nothing (session_policy_for returns nullptr).
  transport::ScopedSessionPolicy session_policy(
      faults::session_policy_for(options.fault_profile));
  // Degradation records attribute give-ups to injected faults via the
  // faults.* counters, which only exist while a registry is bound. Traced
  // campaigns already bind one per shard; for untraced fault-profile runs,
  // bind a throwaway metrics-only registry here. Never engaged under kOff,
  // so off-profile shards observe exactly what they did before.
  obs::MetricsRegistry attribution;
  std::optional<obs::ScopedObservation> attribution_scope;
  if (options.fault_profile != faults::FaultProfile::kOff &&
      obs::meter() == nullptr)
    attribution_scope.emplace(nullptr, &attribution);

  obs::Span root("shard.run", "campaign");
  if (root) {
    root.arg("provider", name);
    root.arg("seed", static_cast<std::int64_t>(campaign_seed));
  }
  TestRunner runner(shard, options);
  runner.collect_ground_truth();
  const auto* deployed = shard.provider(name);
  if (deployed == nullptr)
    throw std::runtime_error("run_provider_shard: shard missing " + name);
  return runner.run_provider(*deployed);
}

}  // namespace

ProviderReport run_provider_shard(
    const std::string& name, std::uint64_t campaign_seed,
    const RunnerOptions& options,
    std::shared_ptr<const netsim::RoutingPlane> plane) {
  return run_provider_shard(name, campaign_seed, options, obs::TraceConfig{},
                            nullptr, std::move(plane));
}

ProviderReport run_provider_shard(
    const std::string& name, std::uint64_t campaign_seed,
    const RunnerOptions& options, const obs::TraceConfig& trace,
    obs::ShardTrace* out, std::shared_ptr<const netsim::RoutingPlane> plane) {
  auto shard = ecosystem::build_provider_shard(
      name, campaign_seed, std::move(plane), options.fault_profile,
      options.speed_test);
  if (!shard.world)
    throw std::invalid_argument("run_provider_shard: unknown provider " + name);
  if (!trace.enabled || out == nullptr)
    return run_shard_body(name, campaign_seed, options, shard);

  obs::TraceRecorder recorder(trace);
  recorder.bind_clock(&shard.world->network().clock());
  obs::MetricsRegistry metrics;
  ProviderReport report;
  {
    obs::ScopedObservation scope(&recorder, &metrics);
    report = run_shard_body(name, campaign_seed, options, shard);
  }
  out->shard = name;
  out->events = recorder.take_events();
  out->metrics = std::move(metrics);
  return report;
}

}  // namespace vpna::core
