// Report rendering: turns campaign results into the consumer-facing
// artefacts the paper shipped (a selection-guide website and raw data) —
// a per-provider Markdown scorecard, a campaign-wide CSV, and a ranked
// summary table.
#pragma once

#include <string>
#include <vector>

#include "core/parallel_campaign.h"
#include "core/runner.h"
#include "obs/metrics.h"

namespace vpna::analysis {

// Letter grade summarizing a provider's measured safety posture.
enum class SafetyGrade : std::uint8_t { kA, kB, kC, kD, kF };
[[nodiscard]] std::string_view grade_name(SafetyGrade g) noexcept;

// Grading policy (documented, deterministic):
//   start at A; drop one grade per independent failure class —
//   tunnel-failure leak, DNS leak, IPv6 leak, transparent proxy;
//   drop straight to F for content injection, DNS manipulation or TLS
//   interception (active tampering).
[[nodiscard]] SafetyGrade grade_provider(const core::ProviderReport& report);

// One provider's human-readable scorecard (Markdown).
[[nodiscard]] std::string render_provider_markdown(
    const core::ProviderReport& report);

// Machine-readable campaign results, one row per provider:
// provider,subscription,client,vantage_points,connected,dns_leak,ipv6_leak,
// tunnel_failure_leak,transparent_proxy,dom_modification,grade
[[nodiscard]] std::string render_campaign_csv(
    const std::vector<core::ProviderReport>& reports);

// The selection-guide style ranked summary (best grades first, stable by
// name within a grade).
[[nodiscard]] std::string render_scorecard(
    const std::vector<core::ProviderReport>& reports);

// Speed-test results, one row per vantage point whose suite ran:
// provider,vantage,goodput_mbps,base_rtt_ms,min_rtt_ms,queue_delay_mean_ms,
// queue_delay_p50_ms,queue_delay_p90_ms,queue_delay_p99_ms,
// queue_delay_max_ms,loss_rate,ecn_rate,sent,delivered,queue_drops,
// fault_drops,cwnd_decreases
// Returns the empty string — not even a header — when no vantage point ran
// a speed test, so capacity-less campaign payloads are byte-identical to a
// build without the traffic plane.
[[nodiscard]] std::string render_speedtest_csv(
    const std::vector<core::ProviderReport>& reports);

// Campaign-wide metrics: every shard's deterministic registry merged in
// canonical catalog order, plus the engine's pool counters folded in as
// volatile `pool.*` metrics (scheduling telemetry, excluded from the
// canonical rendering). Empty when the campaign ran without tracing.
[[nodiscard]] obs::MetricsRegistry campaign_metrics(
    const core::CampaignReport& report);

// "Degradation" appendix: one line per quarantined shard and per degraded
// vantage point (stage, attempts, terminal transport error, fault
// attribution). Deterministic — degradation derives from the sim-time
// fault schedule, never from scheduling. Empty string when nothing
// degraded, so FaultProfile::kOff artifacts are byte-identical to a build
// without the fault plane.
[[nodiscard]] std::string render_degradation_appendix(
    const core::CampaignReport& report);

}  // namespace vpna::analysis
