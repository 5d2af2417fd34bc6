#include "analysis/report_writer.h"

#include <algorithm>

#include "transport/error.h"
#include "util/strings.h"

namespace vpna::analysis {

std::string_view grade_name(SafetyGrade g) noexcept {
  switch (g) {
    case SafetyGrade::kA: return "A";
    case SafetyGrade::kB: return "B";
    case SafetyGrade::kC: return "C";
    case SafetyGrade::kD: return "D";
    case SafetyGrade::kF: return "F";
  }
  return "?";
}

SafetyGrade grade_provider(const core::ProviderReport& report) {
  // Active tampering is disqualifying.
  bool tampering = false;
  for (const auto& vp : report.vantage_points) {
    if (vp.dns_manipulation.manipulation_detected()) tampering = true;
    if (!vp.dom_collection.modified_doms().empty()) tampering = true;
    for (const auto& host : vp.tls.hosts)
      if (host.handshake_ok && !host.fingerprint_matches) tampering = true;
  }
  if (tampering) return SafetyGrade::kF;

  int demerits = 0;
  if (report.any_tunnel_failure_leak()) ++demerits;
  if (report.any_dns_leak()) ++demerits;
  if (report.any_ipv6_leak()) ++demerits;
  if (report.any_proxy_detected()) ++demerits;
  switch (demerits) {
    case 0: return SafetyGrade::kA;
    case 1: return SafetyGrade::kB;
    case 2: return SafetyGrade::kC;
    case 3: return SafetyGrade::kD;
    default: return SafetyGrade::kF;
  }
}

std::string render_provider_markdown(const core::ProviderReport& report) {
  std::string out;
  out += util::format("## %s\n\n", report.provider.c_str());
  out += util::format("- subscription: %s\n",
                      std::string(vpn::subscription_name(report.subscription)).c_str());
  out += util::format("- client model: %s\n",
                      report.has_custom_client ? "first-party client"
                                               : "OpenVPN configuration files");
  out += util::format("- safety grade: **%s**\n\n",
                      std::string(grade_name(grade_provider(report))).c_str());

  out += "| check | result |\n|---|---|\n";
  const auto yn = [](bool bad) { return bad ? "**FAIL**" : "pass"; };
  out += util::format("| tunnel failure handling | %s |\n",
                      yn(report.any_tunnel_failure_leak()));
  out += util::format("| DNS confinement | %s |\n", yn(report.any_dns_leak()));
  out += util::format("| IPv6 confinement | %s |\n", yn(report.any_ipv6_leak()));
  out += util::format("| transparent proxying | %s |\n",
                      yn(report.any_proxy_detected()));
  out += util::format("| content integrity | %s |\n",
                      yn(report.any_dom_modification()));
  out += "\n### Vantage points\n\n";
  for (const auto& vp : report.vantage_points) {
    out += util::format("- `%s` (%s, %s) egress `%s`%s\n", vp.vantage_id.c_str(),
                        vp.advertised_city.c_str(),
                        vp.advertised_country.c_str(),
                        vp.egress_addr.str().c_str(),
                        vp.connected ? "" : " — **unreachable**");
    if (vp.connected && !vp.dom_collection.unrelated_redirects().empty()) {
      out += util::format(
          "  - %zu censorship redirect(s) observed at this egress\n",
          vp.dom_collection.unrelated_redirects().size());
    }
  }
  return out;
}

std::string render_campaign_csv(
    const std::vector<core::ProviderReport>& reports) {
  std::string out =
      "provider,subscription,client,vantage_points,connected,dns_leak,"
      "ipv6_leak,tunnel_failure_leak,transparent_proxy,dom_modification,"
      "grade\n";
  for (const auto& report : reports) {
    int connected = 0;
    for (const auto& vp : report.vantage_points)
      if (vp.connected) ++connected;
    // Provider names may contain commas in principle: quote them.
    out += util::format(
        "\"%s\",%s,%s,%zu,%d,%d,%d,%d,%d,%d,%s\n", report.provider.c_str(),
        std::string(vpn::subscription_name(report.subscription)).c_str(),
        report.has_custom_client ? "first-party" : "config-file",
        report.vantage_points.size(), connected,
        report.any_dns_leak() ? 1 : 0, report.any_ipv6_leak() ? 1 : 0,
        report.any_tunnel_failure_leak() ? 1 : 0,
        report.any_proxy_detected() ? 1 : 0,
        report.any_dom_modification() ? 1 : 0,
        std::string(grade_name(grade_provider(report))).c_str());
  }
  return out;
}

std::string render_scorecard(const std::vector<core::ProviderReport>& reports) {
  std::vector<const core::ProviderReport*> sorted;
  sorted.reserve(reports.size());
  for (const auto& r : reports) sorted.push_back(&r);
  std::sort(sorted.begin(), sorted.end(),
            [](const core::ProviderReport* a, const core::ProviderReport* b) {
              const auto ga = grade_provider(*a);
              const auto gb = grade_provider(*b);
              if (ga != gb) return ga < gb;
              return a->provider < b->provider;
            });

  std::string out = "# VPN selection guide (measured, not marketed)\n\n";
  out += "| grade | provider | failure handling | DNS | IPv6 | proxy | integrity |\n";
  out += "|---|---|---|---|---|---|---|\n";
  const auto cell = [](bool bad) { return bad ? "FAIL" : "ok"; };
  for (const auto* report : sorted) {
    out += util::format(
        "| %s | %s | %s | %s | %s | %s | %s |\n",
        std::string(grade_name(grade_provider(*report))).c_str(),
        report->provider.c_str(), cell(report->any_tunnel_failure_leak()),
        cell(report->any_dns_leak()), cell(report->any_ipv6_leak()),
        cell(report->any_proxy_detected()),
        cell(report->any_dom_modification()));
  }
  out += "\nGrades: one letter per independent failure class; tampering "
         "(injection, DNS manipulation, TLS interception) is an automatic F.\n";
  return out;
}

std::string render_speedtest_csv(
    const std::vector<core::ProviderReport>& reports) {
  std::string rows;
  for (const auto& report : reports) {
    for (const auto& vp : report.vantage_points) {
      const auto& s = vp.speed_test;
      if (!s.ran) continue;
      rows += util::format(
          "\"%s\",%s,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.6f,%.6f,%llu,"
          "%llu,%llu,%llu,%d\n",
          report.provider.c_str(), vp.vantage_id.c_str(), s.goodput_mbps,
          s.base_rtt_ms, s.min_rtt_ms, s.queue_delay_mean_ms,
          s.queue_delay_p50_ms, s.queue_delay_p90_ms, s.queue_delay_p99_ms,
          s.queue_delay_max_ms, s.loss_rate, s.ecn_rate,
          static_cast<unsigned long long>(s.sent_packets),
          static_cast<unsigned long long>(s.delivered_packets),
          static_cast<unsigned long long>(s.queue_drops),
          static_cast<unsigned long long>(s.fault_drops), s.cwnd_decreases);
    }
  }
  if (rows.empty()) return {};  // no suite ran: keep the payload unchanged
  return "provider,vantage,goodput_mbps,base_rtt_ms,min_rtt_ms,"
         "queue_delay_mean_ms,queue_delay_p50_ms,queue_delay_p90_ms,"
         "queue_delay_p99_ms,queue_delay_max_ms,loss_rate,ecn_rate,sent,"
         "delivered,queue_drops,fault_drops,cwnd_decreases\n" +
         rows;
}

obs::MetricsRegistry campaign_metrics(const core::CampaignReport& report) {
  auto merged = obs::merged_metrics(report.traces);
  if (report.traces.empty() && report.cache_records.empty()) return merged;

  const auto fold_counter = [&merged](std::string_view name,
                                      std::uint64_t value) {
    merged.add(name, value);
    merged.set_volatile(name);
  };
  const auto fold_gauge = [&merged](std::string_view name, double value) {
    merged.set_gauge(name, value);
    merged.set_volatile(name);
  };

  if (!report.traces.empty()) {
    // Engine scheduling telemetry, folded in as volatile `pool.*` metrics:
    // useful to a human reading the full dump, nondeterministic by nature,
    // so the canonical rendering (include_volatile = false) excludes it.
    const auto total = util::sum_counters(report.workers);
    fold_counter("pool.tasks_run", total.tasks_run);
    fold_counter("pool.steals", total.steals);
    fold_counter("pool.retries", report.retries);
    fold_gauge("pool.jobs", static_cast<double>(report.jobs));
    fold_gauge("pool.busy_wall_s", total.busy_wall_s);
    fold_gauge("pool.busy_cpu_s", total.busy_cpu_s);
    fold_gauge("pool.wall_s", report.wall_s);
  }

  if (!report.cache_records.empty()) {
    // Artifact-store provenance as volatile `cache.*` metrics — outcomes
    // depend on prior store state, so they can never be canonical.
    const auto cache = core::summarize_cache(report.cache_records);
    fold_counter("cache.hit", cache.hits);
    fold_counter("cache.miss", cache.misses);
    fold_counter("cache.corrupt", cache.corrupt);
    fold_counter("cache.bypass", cache.bypassed);
    fold_counter("cache.stored", cache.stored);
    fold_counter("cache.bytes_read", cache.bytes_read);
    fold_counter("cache.bytes_written", cache.bytes_written);
  }
  return merged;
}

std::string render_degradation_appendix(const core::CampaignReport& report) {
  if (report.degraded_providers.empty()) return {};
  std::string out = "\n## Appendix: degradation\n\n";
  out += util::format(
      "%zu provider(s) completed degraded under the active fault profile "
      "(structured give-ups, not hard failures).\n\n",
      report.degraded_providers.size());
  for (const auto& provider : report.providers) {
    if (!provider.degraded()) continue;
    if (provider.quarantined) {
      out += util::format(
          "- `%s` — shard quarantined: exhausted every shard attempt\n",
          provider.provider.c_str());
      continue;
    }
    for (const auto& vp : provider.vantage_points) {
      if (!vp.degradation.degraded) continue;
      out += util::format(
          "- `%s` / `%s` — gave up at %s after %d attempt(s): %s "
          "(injected faults seen: %llu)\n",
          provider.provider.c_str(), vp.vantage_id.c_str(),
          vp.degradation.stage.c_str(), vp.degradation.attempts,
          transport::error_name(vp.degradation.error).c_str(),
          static_cast<unsigned long long>(vp.degradation.faults_seen));
    }
  }
  return out;
}

}  // namespace vpna::analysis
