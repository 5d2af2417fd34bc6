#include "analysis/report_aggregation.h"

#include <algorithm>

#include "analysis/report_writer.h"

namespace vpna::analysis {

std::vector<RedirectRow> aggregate_redirects(
    const std::vector<core::ProviderReport>& reports) {
  std::map<std::string, RedirectRow> by_destination;
  for (const auto& provider : reports) {
    for (const auto& vp : provider.vantage_points) {
      for (const auto* page : vp.dom_collection.unrelated_redirects()) {
        auto& row = by_destination[page->final_host];
        row.destination_host = page->final_host;
        row.providers.insert(provider.provider);
        row.vantage_countries.insert(vp.advertised_country);
      }
    }
  }
  std::vector<RedirectRow> out;
  out.reserve(by_destination.size());
  for (auto& [dest, row] : by_destination) out.push_back(std::move(row));
  std::sort(out.begin(), out.end(),
            [](const RedirectRow& a, const RedirectRow& b) {
              if (a.providers.size() != b.providers.size())
                return a.providers.size() > b.providers.size();
              return a.destination_host < b.destination_host;
            });
  return out;
}

LeakageSummary aggregate_leakage(
    const std::vector<core::ProviderReport>& reports) {
  LeakageSummary out;
  for (const auto& provider : reports) {
    if (provider.has_custom_client) ++out.custom_client_providers;
    if (provider.any_dns_leak()) out.dns_leakers.insert(provider.provider);
    if (provider.any_ipv6_leak()) out.ipv6_leakers.insert(provider.provider);
    // The failure test applies to every provider we could connect to.
    bool connected_any = false;
    for (const auto& vp : provider.vantage_points)
      connected_any = connected_any || vp.connected;
    if (connected_any && provider.has_custom_client)
      ++out.tunnel_failure_applicable;
    if (provider.has_custom_client && provider.any_tunnel_failure_leak())
      out.tunnel_failure_leakers.insert(provider.provider);
  }
  return out;
}

ManipulationSummary aggregate_manipulation(
    const std::vector<core::ProviderReport>& reports) {
  ManipulationSummary out;
  for (const auto& provider : reports) {
    if (provider.any_proxy_detected())
      out.transparent_proxies.insert(provider.provider);
    bool injected = false;
    bool blocked = false;
    bool intercepted_tls = false;
    for (const auto& vp : provider.vantage_points) {
      if (!vp.dom_collection.modified_doms().empty()) injected = true;
      if (vp.tls.blocked_count() > 0) blocked = true;
      for (const auto& host : vp.tls.hosts) {
        if (host.handshake_ok && !host.fingerprint_matches)
          intercepted_tls = true;
      }
      if (vp.dns_manipulation.manipulation_detected())
        out.dns_manipulators.insert(provider.provider);
    }
    if (injected) out.content_injectors.insert(provider.provider);
    if (intercepted_tls) out.tls_interceptors.insert(provider.provider);
    if (blocked) ++out.providers_with_blocked_403;
  }
  return out;
}

CampaignEngineSummary summarize_execution(const core::ExecutionReport& report) {
  CampaignEngineSummary out;
  out.failed_shards = report.failed_providers.size();
  out.crash_quarantined_shards = report.crash_quarantined_providers.size();
  out.interrupted = report.interrupted;
  out.jobs = report.jobs;
  out.wall_s = report.wall_s;
  out.retries = report.retries;
  for (const auto& w : report.workers) {
    out.tasks_run += w.tasks_run;
    out.steals += w.steals;
    out.busy_wall_s += w.busy_wall_s;
    out.busy_cpu_s += w.busy_cpu_s;
  }
  return out;
}

CampaignEngineSummary summarize_campaign(const core::CampaignReport& report) {
  CampaignEngineSummary out = summarize_execution(report);
  out.providers = report.providers.size();
  for (const auto& provider : report.providers) {
    out.vantage_points_tested += provider.vantage_points.size();
    if (provider.quarantined) ++out.quarantined_shards;
    if (provider.degraded()) ++out.degraded_providers;
    for (const auto& vp : provider.vantage_points)
      if (vp.degradation.degraded) ++out.degraded_vantage_points;
    for (const auto& vp : provider.vantage_points) {
      if (vp.connected) {
        ++out.connected_providers;
        break;
      }
    }
  }
  return out;
}

int campaign_exit_code(const CampaignEngineSummary& summary) noexcept {
  if (summary.interrupted) return 130;
  if (summary.failed_shards > 0) return 1;
  if (summary.crash_quarantined_shards > 0) return 3;
  return 0;
}

std::string serialize_campaign_payload(const core::CampaignReport& report) {
  std::string out = render_campaign_csv(report.providers);
  for (const auto& provider : report.providers)
    out += render_provider_markdown(provider);
  // Empty string unless something degraded, so kOff payloads are
  // byte-identical to builds without the fault plane.
  out += render_degradation_appendix(report);
  // Same contract for the performance suite: empty string unless a speed
  // test actually ran, so capacity-less payloads are unchanged bytes.
  out += render_speedtest_csv(report.providers);
  return out;
}

}  // namespace vpna::analysis
