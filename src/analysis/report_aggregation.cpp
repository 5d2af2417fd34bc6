#include "analysis/report_aggregation.h"

#include <algorithm>

#include "analysis/report_writer.h"
#include "util/strings.h"

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

DegradationTally tally_degradation(const core::CampaignReport& report) {
  DegradationTally out;
  for (const auto& provider : report.providers) {
    if (provider.quarantined) ++out.quarantined_shards;
    for (const auto& vp : provider.vantage_points)
      if (vp.degradation.degraded) ++out.degraded_vantage_points;
  }
  return out;
}

int campaign_exit_code(const core::ExecutionReport& report) noexcept {
  if (report.interrupted) return 130;
  if (!report.failed_providers.empty()) return 1;
  if (!report.crash_quarantined_providers.empty()) return 3;
  return 0;
}

namespace {

// The payload's pieces, each rendered once, in payload order.
struct PayloadPieces {
  std::string csv;
  std::vector<std::string> markdown;  // one section per provider
  // Empty string unless something degraded, so kOff payloads are
  // byte-identical to builds without the fault plane.
  std::string degradation;
  // Same contract for the performance suite: empty string unless a speed
  // test actually ran, so capacity-less payloads are unchanged bytes.
  std::string speedtest;
};

PayloadPieces render_payload_pieces(const core::CampaignReport& report) {
  PayloadPieces out{render_campaign_csv(report.providers), {},
                    render_degradation_appendix(report),
                    render_speedtest_csv(report.providers)};
  out.markdown.reserve(report.providers.size());
  for (const auto& provider : report.providers)
    out.markdown.push_back(render_provider_markdown(provider));
  return out;
}

std::string join_payload(const PayloadPieces& pieces) {
  std::string out = pieces.csv;
  for (const auto& section : pieces.markdown) out += section;
  out += pieces.degradation;
  out += pieces.speedtest;
  return out;
}

}  // namespace

std::string serialize_campaign_payload(const core::CampaignReport& report) {
  return join_payload(render_payload_pieces(report));
}

PaperArtefacts render_paper_artefacts(const core::CampaignReport& report) {
  auto pieces = render_payload_pieces(report);
  PaperArtefacts out;
  out.payload = join_payload(pieces);
  out.scorecard_md = render_scorecard(report.providers);
  for (const auto& section : pieces.markdown) {
    out.scorecard_md += '\n';
    out.scorecard_md += section;
  }
  // Gated on traces, not on campaign_metrics() being non-empty: a cache-
  // enabled untraced run has volatile cache.* metrics but no canonical
  // ones, and emitting an appendix for it would move the scorecard bytes.
  if (!report.traces.empty()) {
    const auto metrics = campaign_metrics(report);
    // The instrumentation appendix: the canonical (volatile metrics
    // excluded) metrics text, fenced, identical at any worker count.
    if (!metrics.empty()) {
      out.scorecard_md += util::format(
          "\n## Appendix: instrumentation\n\nDeterministic campaign metrics "
          "(merged from %zu shards; scheduling telemetry excluded — "
          "identical at any `--jobs`).\n\n```\n",
          report.traces.size());
      out.scorecard_md += metrics.render_text(/*include_volatile=*/false);
      out.scorecard_md += "```\n";
    }
    out.metrics_text = metrics.render_text(/*include_volatile=*/true);
  }
  out.scorecard_md += pieces.degradation;
  out.campaign_csv = std::move(pieces.csv);
  out.speedtest_csv = std::move(pieces.speedtest);
  return out;
}

}  // namespace vpna::analysis
