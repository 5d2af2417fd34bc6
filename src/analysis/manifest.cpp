#include "analysis/manifest.h"

#include "analysis/report_aggregation.h"
#include "core/report_codec.h"
#include "ecosystem/evaluated.h"
#include "ecosystem/testbed.h"
#include "faults/profile.h"
#include "store/code_epoch.h"
#include "util/rng.h"
#include "util/strings.h"

namespace vpna::analysis {

namespace {

// A JSON array of strings on one line: ["a", "b"].
std::string name_list(const std::vector<std::string>& names) {
  std::string out = "[";
  for (std::size_t i = 0; i < names.size(); ++i) {
    out += i == 0 ? "" : ", ";
    out += util::format("\"%s\"", util::json_escape(names[i]).c_str());
  }
  return out + "]";
}

// A JSON array of one-line objects, one row per item: [] when empty.
template <typename T, typename Row>
std::string rows(const std::vector<T>& items, Row row) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i)
    out += (i == 0 ? "\n      " : ",\n      ") + row(items[i]);
  return out + (items.empty() ? "]\n" : "\n    ]\n");
}

// The `run`, `execution`, `cache`, `build` and `telemetry` sections, from
// what every campaign's execution shares: its ExecutionOptions and its
// ExecutionReport. The trace flag and the degradation tallies exist only
// for a paper campaign; a census passes false and empty ones.
std::string render_execution_sections(
    const core::ExecutionOptions& options, const core::ExecutionReport& report,
    std::uint64_t options_fingerprint, bool trace_enabled,
    const DegradationTally& degradation,
    const std::vector<std::string>& degraded_providers) {
  std::string out = "  \"run\": {\n";
  out += util::format("    \"jobs\": %zu,\n", report.jobs);
  out += util::format("    \"shard_attempts\": %d,\n", options.shard_attempts);
  out += util::format("    \"trace_enabled\": %s\n",
                      trace_enabled ? "true" : "false");
  out += "  },\n";

  out += "  \"execution\": {\n";
  out += util::format("    \"mode\": \"%s\",\n",
                      report.execution_isolated ? "isolated" : "in-process");
  out += util::format("    \"journal\": \"%s\",\n",
                      util::json_escape(options.journal_path).c_str());
  out += util::format("    \"resumed\": %s,\n",
                      options.resume ? "true" : "false");
  out += util::format("    \"interrupted\": %s,\n",
                      report.interrupted ? "true" : "false");
  out += util::format("    \"resumed_shards\": %zu,\n", report.resumed_shards);
  out += "    \"crash_quarantined\": " +
         name_list(report.crash_quarantined_providers) + ",\n";
  out += util::format("    \"process_spawns\": %zu,\n", report.process_spawns);
  out += util::format("    \"process_crashes\": %zu,\n",
                      report.process_crashes);
  out += util::format("    \"process_kills\": %zu,\n", report.process_kills);
  out += "    \"processes\": " +
         rows(report.processes, [](const obs::ProcessStatus& p) {
           return util::format(
               "{\"slot\": %d, \"spawns\": %zu, \"shards_done\": %zu, "
               "\"crashes\": %zu}",
               p.slot, p.spawns, p.shards_done, p.crashes);
         });
  out += "  },\n";

  const auto cache = core::summarize_cache(report.cache_records);
  out += "  \"cache\": {\n";
  out += util::format(
      "    \"mode\": \"%s\",\n",
      util::json_escape(store::cache_mode_name(options.cache.mode)).c_str());
  out += util::format("    \"dir\": \"%s\",\n",
                      util::json_escape(options.cache.dir).c_str());
  out += util::format("    \"code_epoch\": %u,\n", store::kCodeEpoch);
  out += util::format("    \"runner_options_fingerprint\": \"%016llx\",\n",
                      static_cast<unsigned long long>(options_fingerprint));
  out += util::format("    \"shards\": %zu,\n", cache.shards);
  out += util::format("    \"hits\": %zu,\n", cache.hits);
  out += util::format("    \"misses\": %zu,\n", cache.misses);
  out += util::format("    \"corrupt\": %zu,\n", cache.corrupt);
  out += util::format("    \"bypassed\": %zu,\n", cache.bypassed);
  out += util::format("    \"stored\": %zu,\n", cache.stored);
  out += util::format("    \"bytes_read\": %llu,\n",
                      static_cast<unsigned long long>(cache.bytes_read));
  out += util::format("    \"bytes_written\": %llu,\n",
                      static_cast<unsigned long long>(cache.bytes_written));
  out += "    \"shard_cache\": " +
         rows(report.cache_records, [](const core::ShardCacheRecord& r) {
           return util::format(
               "{\"provider\": \"%s\", \"key\": \"%s\", \"outcome\": \"%s\", "
               "\"stored\": %s, \"bytes\": %llu}",
               util::json_escape(r.provider).c_str(),
               util::json_escape(r.key_id).c_str(),
               util::json_escape(core::cache_outcome_name(r.outcome)).c_str(),
               r.stored ? "true" : "false",
               static_cast<unsigned long long>(r.bytes));
         });
  out += "  },\n";

#ifdef __VERSION__
  const char* compiler = __VERSION__;
#else
  const char* compiler = "unknown";
#endif
#ifdef NDEBUG
  const char* build_type = "release";
#else
  const char* build_type = "debug";
#endif
  out += "  \"build\": {\n";
  out += util::format("    \"compiler\": \"%s\",\n",
                      util::json_escape(compiler).c_str());
  out += util::format("    \"build_type\": \"%s\"\n", build_type);
  out += "  },\n";

  const auto pool = util::sum_counters(report.workers);
  out += "  \"telemetry\": {\n";
  out += util::format("    \"wall_s\": %.3f,\n", report.wall_s);
  out += util::format("    \"busy_wall_s\": %.3f,\n", pool.busy_wall_s);
  out += util::format("    \"tasks_run\": %llu,\n",
                      static_cast<unsigned long long>(pool.tasks_run));
  out += util::format("    \"steals\": %llu,\n",
                      static_cast<unsigned long long>(pool.steals));
  out += util::format("    \"retries\": %llu,\n",
                      static_cast<unsigned long long>(report.retries));
  out += util::format("    \"failed_shards\": %zu,\n",
                      report.failed_providers.size());
  out += util::format("    \"quarantined_shards\": %zu,\n",
                      degradation.quarantined_shards);
  out += util::format("    \"degraded_vantage_points\": %zu,\n",
                      degradation.degraded_vantage_points);
  out += "    \"degraded_providers\": " + name_list(degraded_providers) + ",\n";
  out += "    \"watchdog\": " +
         rows(report.watchdog_alerts, [](const obs::WatchdogAlert& alert) {
           return util::format(
               "{\"shard\": \"%s\", \"worker\": %d, \"elapsed_s\": %.3f, "
               "\"median_s\": %.3f, \"ratio\": %.2f}",
               util::json_escape(alert.shard).c_str(), alert.worker,
               alert.elapsed_s, alert.median_s, alert.ratio());
         });
  out += "  }\n";
  out += "}\n";
  return out;
}

}  // namespace

std::string render_manifest_json(const core::CampaignOptions& options,
                                 const core::CampaignReport& report,
                                 std::string_view payload) {
  std::string out = "{\n";
  out += "  \"key\": {\n";
  out += util::format(
      "    \"catalog_fingerprint\": \"%016llx\",\n",
      static_cast<unsigned long long>(ecosystem::catalog_fingerprint()));
  out += util::format("    \"campaign_seed\": %llu,\n",
                      static_cast<unsigned long long>(report.seed));
  out += util::format(
      "    \"fault_profile\": \"%s\",\n",
      util::json_escape(faults::profile_name(options.runner.fault_profile))
          .c_str());
  out += util::format("    \"link_capacities\": %s,\n",
                      options.runner.speed_test ? "true" : "false");
  out += util::format("    \"payload_fingerprint\": \"%016llx\",\n",
                      static_cast<unsigned long long>(util::fnv1a(payload)));
  out += "    \"shard_seeds\": " +
         rows(report.providers, [&report](const core::ProviderReport& p) {
           return util::format(
               "{\"provider\": \"%s\", \"seed\": \"%016llx\"}",
               util::json_escape(p.provider).c_str(),
               static_cast<unsigned long long>(
                   ecosystem::shard_seed(report.seed, p.provider)));
         });
  out += "  },\n";
  return out + render_execution_sections(
                   options, report,
                   core::runner_options_fingerprint(options.runner),
                   options.trace.enabled, tally_degradation(report),
                   report.degraded_providers);
}

std::string render_scaled_manifest_json(
    const core::ScaledCampaignReport& report,
    const core::ScaledCampaignOptions& options) {
  std::string out = "{\n";
  out += "  \"key\": {\n";
  out += util::format("    \"catalog_fingerprint\": \"%016llx\",\n",
                      static_cast<unsigned long long>(report.catalog_fingerprint));
  out += util::format("    \"campaign_seed\": %llu,\n",
                      static_cast<unsigned long long>(report.seed));
  out += util::format("    \"max_clients\": %u,\n", options.max_clients);
  out += util::format("    \"payload_fingerprint\": \"%016llx\"\n",
                      static_cast<unsigned long long>(report.payload_fingerprint));
  out += "  },\n";
  return out + render_execution_sections(
                   options, report, core::scaled_options_fingerprint(options),
                   /*trace_enabled=*/false, {}, {});
}

}  // namespace vpna::analysis
