// Aggregation of per-vantage-point test reports into the paper's result
// tables: redirect destinations by country (Table 4), leakage rosters
// (Table 6 and the §6.5 tunnel-failure tally), proxy detections (§6.2.1)
// and injection findings (§6.1.3).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/parallel_campaign.h"
#include "core/runner.h"

namespace vpna::analysis {

// One row of Table 4: a redirect destination and the providers affected.
struct RedirectRow {
  std::string destination_host;
  std::set<std::string> providers;
  std::set<std::string> vantage_countries;  // where affected VPs claimed to be
};

// Collates unrelated redirects across all reports, grouped by destination.
[[nodiscard]] std::vector<RedirectRow> aggregate_redirects(
    const std::vector<core::ProviderReport>& reports);

struct LeakageSummary {
  std::set<std::string> dns_leakers;
  std::set<std::string> ipv6_leakers;
  std::set<std::string> tunnel_failure_leakers;
  int custom_client_providers = 0;
  int tunnel_failure_applicable = 0;

  [[nodiscard]] double tunnel_failure_rate() const {
    return tunnel_failure_applicable == 0
               ? 0.0
               : static_cast<double>(tunnel_failure_leakers.size()) /
                     tunnel_failure_applicable;
  }
};

[[nodiscard]] LeakageSummary aggregate_leakage(
    const std::vector<core::ProviderReport>& reports);

struct ManipulationSummary {
  std::set<std::string> transparent_proxies;   // §6.2.1 (five in the paper)
  std::set<std::string> content_injectors;     // §6.1.3 (one)
  std::set<std::string> dns_manipulators;
  std::set<std::string> tls_interceptors;      // none observed in the paper
  int providers_with_blocked_403 = 0;          // VPN-range discrimination
};

[[nodiscard]] ManipulationSummary aggregate_manipulation(
    const std::vector<core::ProviderReport>& reports);

// The paper campaign's graceful-degradation tallies (fault-profile runs;
// both zero under FaultProfile::kOff): shards the fault profile
// quarantined and vantage points that gave up inside a completed shard.
// The console summary and the run manifest both read them from here.
struct DegradationTally {
  std::size_t quarantined_shards = 0;
  std::size_t degraded_vantage_points = 0;
};

[[nodiscard]] DegradationTally tally_degradation(
    const core::CampaignReport& report);

// Exit-code taxonomy for campaign binaries:
//   0   — completed, payload trustworthy (including graceful fault-profile
//         degradation: quarantined shards / degraded vantage points carry
//         structured outcomes in the payload);
//   1   — hard shard failure (fault profile off, shard exhausted attempts);
//   2   — usage error (reserved for the CLI argument parser);
//   3   — completed but one or more shards were crash-quarantined under
//         --isolate (worker death every attempt): the campaign finished and
//         merged cleanly, but the payload has placeholder rows;
//   130 — interrupted (SIGINT/SIGTERM; 128 + SIGINT, set by the CLI).
// Hard failure outranks crash quarantine when both occur. Reads the
// report's `interrupted`, `failed_providers` and
// `crash_quarantined_providers`, whichever catalog ran.
[[nodiscard]] int campaign_exit_code(
    const core::ExecutionReport& report) noexcept;

// Canonical serialization of a campaign's deterministic payload (the
// provider reports only — no worker counters, no timings): the campaign CSV,
// every provider's Markdown section, the degradation appendix and the
// speed-test CSV, in that order. Two campaigns over the same seed must
// serialize byte-identically at any worker count; the determinism suite and
// bench compare exactly these bytes.
[[nodiscard]] std::string serialize_campaign_payload(
    const core::CampaignReport& report);

// Every file a paper campaign writes, and its payload, from one render.
struct PaperArtefacts {
  std::string campaign_csv;   // campaign.csv
  std::string scorecard_md;   // scorecard.md
  std::string speedtest_csv;  // speedtest.csv; empty unless a speed test ran
  std::string metrics_text;   // all of campaign_metrics(); empty untraced
  std::string payload;        // serialize_campaign_payload()'s bytes
};

// Renders each payload piece once and builds the files and the payload from
// them. scorecard.md is the ranked scorecard, then "\n" before each
// provider's Markdown, the instrumentation appendix (traced runs) and the
// degradation appendix. A traced run's metrics are merged once.
[[nodiscard]] PaperArtefacts render_paper_artefacts(
    const core::CampaignReport& report);

}  // namespace vpna::analysis
