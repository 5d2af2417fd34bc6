#include "mirror.h"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "core/report_codec.h"
#include "core/runner.h"
#include "faults/profile.h"
#include "obs/trace.h"
#include "transport/policy.h"
#include "util/rng.h"
#include "util/strings.h"
#include "vpn/client.h"

namespace vpna::bench {

int SpanLog::open(std::string name, int parent, int shard) {
  SpanRecord rec;
  rec.name = std::move(name);
  rec.parent = parent;
  rec.shard = shard;
  rec.start_us = now_us();
  spans_.push_back(std::move(rec));
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::close(int index) { spans_.at(index).end_us = now_us(); }

double SpanLog::duration_ms(int index) const {
  const auto& s = spans_.at(index);
  return (s.end_us - s.start_us) / 1000.0;
}

double SpanLog::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::string SpanLog::to_json() const {
  std::string out = "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    out += util::format(
        "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
        "\"parent\":%d,\"shard\":%d}%s\n",
        i, s.name.c_str(), s.start_us, s.end_us, s.parent, s.shard,
        i + 1 < spans_.size() ? "," : "");
  }
  out += "]\n";
  return out;
}

namespace {

// Same snapshot TestRunner collects after connecting (runner.cpp).
core::MetadataSnapshot collect_metadata(const netsim::Host& host) {
  core::MetadataSnapshot meta;
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

// TestRunner::run_provider's vantage-point choice: country diversity
// first, then catalog order.
std::vector<const vpn::DeployedVantagePoint*> select_vantage_points(
    const vpn::DeployedProvider& provider, std::size_t budget) {
  std::vector<const vpn::DeployedVantagePoint*> selected;
  if (budget == 0 || provider.vantage_points.size() <= budget) {
    for (const auto& vp : provider.vantage_points) selected.push_back(&vp);
    return selected;
  }
  std::set<std::string> countries;
  for (const auto& vp : provider.vantage_points) {
    if (selected.size() >= budget) break;
    if (countries.insert(vp.spec.advertised_country).second)
      selected.push_back(&vp);
  }
  for (const auto& vp : provider.vantage_points) {
    if (selected.size() >= budget) break;
    if (std::find(selected.begin(), selected.end(), &vp) == selected.end())
      selected.push_back(&vp);
  }
  return selected;
}

struct VantageContext {
  SpanLog& log;
  int parent;
  int shard;
  ShardLayers& layers;
  const core::RunnerOptions& options;
  const core::GroundTruth& truth;
};

// One suite call: a span, its wall time and its transport exchanges.
template <typename Fn>
auto timed_suite(VantageContext& ctx, std::size_t suite, Fn&& fn) {
  const std::uint64_t before = ctx.layers.metrics.counter("transport.exchanges");
  ScopedSpan span(ctx.log, util::format("core.run_%s", kSuites[suite].data()),
                  ctx.parent, ctx.shard);
  auto result = fn();
  ctx.layers.suite_ms[suite] += span.ms();
  ctx.layers.suite_exchanges[suite] +=
      ctx.layers.metrics.counter("transport.exchanges") - before;
  return result;
}

// Mirrors TestRunner::run_vantage_point.
core::VantagePointReport mirror_vantage_point(
    VantageContext& ctx, ecosystem::Testbed& tb,
    const vpn::DeployedProvider& provider, const vpn::DeployedVantagePoint& vp,
    std::uint32_t session) {
  core::VantagePointReport report;
  report.provider = provider.spec.name;
  report.vantage_id = vp.spec.id;
  report.advertised_country = vp.spec.advertised_country;
  report.advertised_city = vp.spec.advertised_city;
  report.egress_addr = vp.addr;

  auto& world = *tb.world;
  auto& client = *tb.client;
  client.capture().clear();
  const std::uint64_t faults_before =
      ctx.layers.metrics.counter_prefix_sum("faults.");

  vpn::VpnClient vpn_client(world.network(), client, provider.spec, session);
  const int attempts = std::max(1, ctx.options.connect_attempts);
  vpn::ConnectResult connect;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    ScopedSpan span(ctx.log, "vpn.connect", ctx.parent, ctx.shard);
    connect = vpn_client.connect(vp.addr);
    ctx.layers.connect_ms.push_back(span.ms());
    if (connect.connected) break;
  }
  report.connected = connect.connected;
  if (!connect.connected) {
    if (ctx.options.fault_profile != faults::FaultProfile::kOff) {
      report.degradation.degraded = true;
      report.degradation.stage = "connect";
      report.degradation.error = connect.error;
      report.degradation.attempts = attempts;
      report.degradation.faults_seen =
          ctx.layers.metrics.counter_prefix_sum("faults.") - faults_before;
    }
    ctx.layers.capture_packets += client.capture().size();
    return report;
  }

  report.metadata = collect_metadata(client);
  const auto& truth = ctx.truth;
  report.dns_manipulation = timed_suite(
      ctx, 0, [&] { return core::run_dns_manipulation_test(world, client); });
  if (ctx.options.run_web_suites) {
    report.dom_collection = timed_suite(ctx, 1, [&] {
      return core::run_dom_collection_test(world, client, truth);
    });
    report.tls = timed_suite(
        ctx, 2, [&] { return core::run_tls_test(world, client, truth); });
  }
  report.proxy = timed_suite(
      ctx, 3, [&] { return core::run_proxy_detection_test(world, client); });
  report.recursive_origin = timed_suite(ctx, 4, [&] {
    return core::run_recursive_dns_origin_test(
        world, client,
        util::format("t%u-%s-%s", session, provider.spec.name.c_str(),
                     vp.spec.id.c_str()));
  });
  report.pings = timed_suite(
      ctx, 5, [&] { return core::run_ping_probe_test(world, client); });
  report.geo_api = timed_suite(
      ctx, 6, [&] { return core::run_geo_api_test(world, client); });
  if (provider.spec.has_custom_client || !ctx.options.respect_client_model) {
    report.dns_leak = timed_suite(
        ctx, 7, [&] { return core::run_dns_leak_test(world, client); });
    report.ipv6_leak = timed_suite(
        ctx, 8, [&] { return core::run_ipv6_leak_test(world, client); });
  }
  report.tunnel_failure = timed_suite(ctx, 9, [&] {
    return core::run_tunnel_failure_test(world, client, vpn_client,
                                         ctx.options.tunnel_failure_window_s);
  });
  report.pcap =
      timed_suite(ctx, 10, [&] { return core::run_pcap_scan(client); });
  {
    ScopedSpan span(ctx.log, "vpn.disconnect", ctx.parent, ctx.shard);
    vpn_client.disconnect();
  }
  ctx.layers.capture_packets += client.capture().size();
  return report;
}

// Providers whose records encode differently; every one on a length
// mismatch.
template <typename Record, typename Encode>
std::vector<std::string> drift(const std::vector<Record>& mirror,
                               const std::vector<Record>& reference,
                               Encode encode) {
  std::vector<std::string> drifted;
  const bool same_size = mirror.size() == reference.size();
  for (std::size_t i = 0; i < std::max(mirror.size(), reference.size()); ++i) {
    const auto& name =
        i < reference.size() ? reference[i].provider : mirror[i].provider;
    if (!same_size || encode(mirror[i]) != encode(reference[i]))
      drifted.push_back(name);
  }
  return drifted;
}

}  // namespace

core::ProviderReport mirror_provider_shard(
    const std::string& name, std::uint64_t seed,
    const core::RunnerOptions& options,
    std::shared_ptr<const netsim::RoutingPlane> plane, SpanLog& log,
    int shard_id, ShardLayers* out) {
  if (options.speed_test)
    throw std::invalid_argument("mirror_provider_shard: speed test unmirrored");
  ScopedSpan shard_span(log, "core.run_provider_shard", -1, shard_id);
  const int parent = shard_span.index();
  core::ProviderReport report;
  {
    ScopedSpan build_span(log, "ecosystem.build_provider_shard", parent,
                          shard_id);
    auto tb = ecosystem::build_provider_shard(name, seed, std::move(plane),
                                              options.fault_profile,
                                              options.speed_test);
    out->build_ms = build_span.ms();
    if (!tb.world)
      throw std::invalid_argument("mirror_provider_shard: unknown " + name);
    out->hosts = tb.world->host_count();
    out->arena_used_bytes = tb.world->host_arena_used_bytes();

    // run_shard_body's bindings: the fault profile's session policy, and a
    // metrics registry (ours, so the work counters can be read back).
    transport::ScopedSessionPolicy session_policy(
        faults::session_policy_for(options.fault_profile));
    obs::ScopedObservation scope(nullptr, &out->metrics);

    core::TestRunner runner(tb, options);
    {
      ScopedSpan span(log, "core.TestRunner::collect_ground_truth", parent,
                      shard_id);
      runner.collect_ground_truth();
      out->ground_truth_ms = span.ms();
    }
    const auto* deployed = tb.provider(name);
    if (deployed == nullptr)
      throw std::runtime_error("mirror_provider_shard: shard missing " + name);

    report.provider = deployed->spec.name;
    report.subscription = deployed->spec.subscription;
    report.has_custom_client = deployed->spec.has_custom_client;
    VantageContext ctx{log, parent, shard_id, *out, options,
                       runner.ground_truth()};
    std::uint32_t session = 1;
    for (const auto* vp : select_vantage_points(
             *deployed, options.vantage_points_per_provider))
      report.vantage_points.push_back(
          mirror_vantage_point(ctx, tb, *deployed, *vp, session++));
  }
  out->shard_ms = shard_span.ms();
  return report;
}

std::vector<std::string> mirror_drift(
    const std::vector<core::ProviderReport>& mirror,
    const std::vector<core::ProviderReport>& reference) {
  return drift(mirror, reference, core::encode_provider_report);
}

core::ScaledShardCensus mirror_census_shard(
    const ecosystem::ScaledCatalog& catalog, std::size_t index,
    const core::ScaledCampaignOptions& options,
    std::shared_ptr<const netsim::RoutingPlane> plane, SpanLog& log,
    int shard_id, CensusLayers* out) {
  const auto& name = catalog.providers.at(index).spec.name;
  core::ScaledShardCensus census;
  census.provider = name;
  census.modeled_subscribers = catalog.subscribers[index];
  census.clients = std::min(options.max_clients, catalog.subscribers[index]);

  ScopedSpan shard_span(log, "core.run_scaled_census_shard", -1, shard_id);
  {
    ecosystem::ScaledShardOptions shard_opts;
    shard_opts.max_clients = options.max_clients;
    ScopedSpan build_span(log, "ecosystem.build_scaled_shard",
                          shard_span.index(), shard_id);
    auto tb = ecosystem::build_scaled_shard(catalog, name, options.seed,
                                            std::move(plane), shard_opts);
    out->build_ms = build_span.ms();
    if (tb.world) {
      out->hosts = tb.world->host_count();
      out->arena_used_bytes = tb.world->host_arena_used_bytes();
      census.hosts = static_cast<std::uint32_t>(tb.world->host_count());
      if (const auto* deployed = tb.provider(name)) {
        census.vantage_points =
            static_cast<std::uint32_t>(deployed->vantage_points.size());
        std::string canon;
        for (const auto& vp : deployed->vantage_points) {
          canon += vp.addr.str();
          canon.push_back('\x1f');
        }
        census.address_fingerprint = util::fnv1a(canon);
      }
    }
  }
  out->shard_ms = shard_span.ms();
  return census;
}

std::vector<std::string> census_drift(
    const std::vector<core::ScaledShardCensus>& mirror,
    const std::vector<core::ScaledShardCensus>& reference) {
  return drift(mirror, reference, core::encode_shard_census);
}

}  // namespace vpna::bench
