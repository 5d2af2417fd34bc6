#include "analysis/manifest.h"

#include "analysis/report_aggregation.h"
#include "core/report_codec.h"
#include "ecosystem/evaluated.h"
#include "ecosystem/testbed.h"
#include "faults/profile.h"
#include "obs/export.h"
#include "store/code_epoch.h"
#include "util/rng.h"
#include "util/strings.h"

namespace vpna::analysis {

RunManifest build_run_manifest(const core::CampaignOptions& options,
                               const core::CampaignReport& report,
                               std::string_view payload) {
  RunManifest m;
  m.catalog_fingerprint = ecosystem::catalog_fingerprint();
  m.campaign_seed = report.seed;
  m.shard_seeds.reserve(report.providers.size());
  for (const auto& provider : report.providers)
    m.shard_seeds.emplace_back(
        provider.provider,
        ecosystem::shard_seed(report.seed, provider.provider));
  m.fault_profile = std::string(
      faults::profile_name(options.runner.fault_profile));
  m.link_capacities = options.runner.speed_test;
  m.payload_fingerprint = util::fnv1a(payload);

  m.jobs = report.jobs;
  m.shard_attempts = options.shard_attempts;
  m.trace_enabled = options.trace.enabled;

  m.execution_mode = report.execution_isolated ? "isolated" : "in-process";
  m.journal_path = options.journal_path;
  m.resumed = options.resume;
  m.interrupted = report.interrupted;
  m.resumed_shards = report.resumed_shards;
  m.crash_quarantined_providers = report.crash_quarantined_providers;
  m.process_spawns = report.process_spawns;
  m.process_crashes = report.process_crashes;
  m.process_kills = report.process_kills;
  m.process_timeouts = report.process_timeouts;
  m.processes = report.processes;

  m.cache_mode = std::string(store::cache_mode_name(options.cache.mode));
  m.cache_dir = options.cache.dir;
  m.code_epoch = store::kCodeEpoch;
  m.runner_options_fp = core::runner_options_fingerprint(options.runner);
  m.cache = core::summarize_cache(report.cache_records);
  m.shard_cache.reserve(report.cache_records.size());
  for (const auto& r : report.cache_records) {
    RunManifest::ShardCacheEntry e;
    e.provider = r.provider;
    e.key = r.key_id;
    e.outcome = std::string(core::cache_outcome_name(r.outcome));
    e.stored = r.stored;
    e.bytes = r.bytes;
    m.shard_cache.push_back(std::move(e));
  }

#ifdef __VERSION__
  m.compiler = __VERSION__;
#else
  m.compiler = "unknown";
#endif
#ifdef NDEBUG
  m.build_type = "release";
#else
  m.build_type = "debug";
#endif

  const auto engine = summarize_campaign(report);
  m.wall_s = report.wall_s;
  m.busy_wall_s = engine.busy_wall_s;
  m.tasks_run = engine.tasks_run;
  m.steals = engine.steals;
  m.retries = engine.retries;
  m.failed_shards = engine.failed_shards;
  m.quarantined_shards = engine.quarantined_shards;
  m.degraded_vantage_points = engine.degraded_vantage_points;
  m.degraded_providers = report.degraded_providers;
  m.watchdog_alerts = report.watchdog_alerts;
  return m;
}

std::string render_manifest_json(const RunManifest& m) {
  std::string out = "{\n";
  out += "  \"key\": {\n";
  out += util::format("    \"catalog_fingerprint\": \"%016llx\",\n",
                      static_cast<unsigned long long>(m.catalog_fingerprint));
  out += util::format("    \"campaign_seed\": %llu,\n",
                      static_cast<unsigned long long>(m.campaign_seed));
  out += util::format("    \"fault_profile\": \"%s\",\n",
                      obs::json_escape(m.fault_profile).c_str());
  out += util::format("    \"link_capacities\": %s,\n",
                      m.link_capacities ? "true" : "false");
  out += util::format("    \"payload_fingerprint\": \"%016llx\",\n",
                      static_cast<unsigned long long>(m.payload_fingerprint));
  out += "    \"shard_seeds\": [";
  for (std::size_t i = 0; i < m.shard_seeds.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += util::format("      {\"provider\": \"%s\", \"seed\": \"%016llx\"}",
                        obs::json_escape(m.shard_seeds[i].first).c_str(),
                        static_cast<unsigned long long>(m.shard_seeds[i].second));
  }
  out += m.shard_seeds.empty() ? "]\n" : "\n    ]\n";
  out += "  },\n";

  out += "  \"run\": {\n";
  out += util::format("    \"jobs\": %zu,\n", m.jobs);
  out += util::format("    \"shard_attempts\": %d,\n", m.shard_attempts);
  out += util::format("    \"trace_enabled\": %s\n",
                      m.trace_enabled ? "true" : "false");
  out += "  },\n";

  out += "  \"execution\": {\n";
  out += util::format("    \"mode\": \"%s\",\n",
                      obs::json_escape(m.execution_mode).c_str());
  out += util::format("    \"journal\": \"%s\",\n",
                      obs::json_escape(m.journal_path).c_str());
  out += util::format("    \"resumed\": %s,\n", m.resumed ? "true" : "false");
  out += util::format("    \"interrupted\": %s,\n",
                      m.interrupted ? "true" : "false");
  out += util::format("    \"resumed_shards\": %zu,\n", m.resumed_shards);
  out += "    \"crash_quarantined\": [";
  for (std::size_t i = 0; i < m.crash_quarantined_providers.size(); ++i) {
    out += i == 0 ? "" : ", ";
    out += util::format(
        "\"%s\"", obs::json_escape(m.crash_quarantined_providers[i]).c_str());
  }
  out += "],\n";
  out += util::format("    \"process_spawns\": %zu,\n", m.process_spawns);
  out += util::format("    \"process_crashes\": %zu,\n", m.process_crashes);
  out += util::format("    \"process_kills\": %zu,\n", m.process_kills);
  out += util::format("    \"process_timeouts\": %zu,\n", m.process_timeouts);
  out += "    \"processes\": [";
  for (std::size_t i = 0; i < m.processes.size(); ++i) {
    const auto& p = m.processes[i];
    out += i == 0 ? "\n" : ",\n";
    out += util::format(
        "      {\"slot\": %d, \"spawns\": %zu, \"shards_done\": %zu, "
        "\"crashes\": %zu}",
        p.slot, p.spawns, p.shards_done, p.crashes);
  }
  out += m.processes.empty() ? "]\n" : "\n    ]\n";
  out += "  },\n";

  out += "  \"cache\": {\n";
  out += util::format("    \"mode\": \"%s\",\n",
                      obs::json_escape(m.cache_mode).c_str());
  out += util::format("    \"dir\": \"%s\",\n",
                      obs::json_escape(m.cache_dir).c_str());
  out += util::format("    \"code_epoch\": %u,\n", m.code_epoch);
  out += util::format("    \"runner_options_fingerprint\": \"%016llx\",\n",
                      static_cast<unsigned long long>(m.runner_options_fp));
  out += util::format("    \"shards\": %zu,\n", m.cache.shards);
  out += util::format("    \"hits\": %zu,\n", m.cache.hits);
  out += util::format("    \"misses\": %zu,\n", m.cache.misses);
  out += util::format("    \"corrupt\": %zu,\n", m.cache.corrupt);
  out += util::format("    \"bypassed\": %zu,\n", m.cache.bypassed);
  out += util::format("    \"stored\": %zu,\n", m.cache.stored);
  out += util::format("    \"bytes_read\": %llu,\n",
                      static_cast<unsigned long long>(m.cache.bytes_read));
  out += util::format("    \"bytes_written\": %llu,\n",
                      static_cast<unsigned long long>(m.cache.bytes_written));
  out += "    \"shard_cache\": [";
  for (std::size_t i = 0; i < m.shard_cache.size(); ++i) {
    const auto& e = m.shard_cache[i];
    out += i == 0 ? "\n" : ",\n";
    out += util::format(
        "      {\"provider\": \"%s\", \"key\": \"%s\", \"outcome\": \"%s\", "
        "\"stored\": %s, \"bytes\": %llu}",
        obs::json_escape(e.provider).c_str(), obs::json_escape(e.key).c_str(),
        obs::json_escape(e.outcome).c_str(), e.stored ? "true" : "false",
        static_cast<unsigned long long>(e.bytes));
  }
  out += m.shard_cache.empty() ? "]\n" : "\n    ]\n";
  out += "  },\n";

  out += "  \"build\": {\n";
  out += util::format("    \"compiler\": \"%s\",\n",
                      obs::json_escape(m.compiler).c_str());
  out += util::format("    \"build_type\": \"%s\"\n", m.build_type.c_str());
  out += "  },\n";

  out += "  \"telemetry\": {\n";
  out += util::format("    \"wall_s\": %.3f,\n", m.wall_s);
  out += util::format("    \"busy_wall_s\": %.3f,\n", m.busy_wall_s);
  out += util::format("    \"tasks_run\": %llu,\n",
                      static_cast<unsigned long long>(m.tasks_run));
  out += util::format("    \"steals\": %llu,\n",
                      static_cast<unsigned long long>(m.steals));
  out += util::format("    \"retries\": %llu,\n",
                      static_cast<unsigned long long>(m.retries));
  out += util::format("    \"failed_shards\": %zu,\n", m.failed_shards);
  out += util::format("    \"quarantined_shards\": %zu,\n",
                      m.quarantined_shards);
  out += util::format("    \"degraded_vantage_points\": %zu,\n",
                      m.degraded_vantage_points);
  out += "    \"degraded_providers\": [";
  for (std::size_t i = 0; i < m.degraded_providers.size(); ++i) {
    out += i == 0 ? "" : ", ";
    out += util::format("\"%s\"",
                        obs::json_escape(m.degraded_providers[i]).c_str());
  }
  out += "],\n";
  out += "    \"watchdog\": [";
  for (std::size_t i = 0; i < m.watchdog_alerts.size(); ++i) {
    const auto& alert = m.watchdog_alerts[i];
    out += i == 0 ? "\n" : ",\n";
    out += util::format(
        "      {\"shard\": \"%s\", \"worker\": %d, \"elapsed_s\": %.3f, "
        "\"median_s\": %.3f, \"ratio\": %.2f}",
        obs::json_escape(alert.shard).c_str(), alert.worker, alert.elapsed_s,
        alert.median_s, alert.ratio());
  }
  out += m.watchdog_alerts.empty() ? "]\n" : "\n    ]\n";
  out += "  }\n";
  out += "}\n";
  return out;
}

std::string render_scaled_manifest_json(
    const core::ScaledCampaignReport& report,
    const core::ScaledCampaignOptions& options) {
  const auto cache = core::summarize_cache(report.cache_records);
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
  out += "  \"run\": {\n";
  out += util::format("    \"jobs\": %zu,\n", report.jobs);
  out += util::format("    \"shards\": %zu,\n", report.shards.size());
  out += util::format("    \"mode\": \"%s\",\n",
                      report.execution_isolated ? "isolated" : "in-process");
  out += util::format("    \"interrupted\": %s,\n",
                      report.interrupted ? "true" : "false");
  out += "    \"crashed_providers\": [";
  for (std::size_t i = 0; i < report.crashed_providers.size(); ++i) {
    out += i == 0 ? "" : ", ";
    out += util::format("\"%s\"",
                        obs::json_escape(report.crashed_providers[i]).c_str());
  }
  out += "],\n";
  out += util::format("    \"process_spawns\": %zu,\n", report.process_spawns);
  out += util::format("    \"process_crashes\": %zu\n", report.process_crashes);
  out += "  },\n";
  out += "  \"cache\": {\n";
  out += util::format("    \"mode\": \"%s\",\n",
                      store::cache_mode_name(options.cache.mode).data());
  out += util::format("    \"code_epoch\": %u,\n", store::kCodeEpoch);
  out += util::format("    \"hits\": %zu,\n", cache.hits);
  out += util::format("    \"misses\": %zu,\n", cache.misses);
  out += util::format("    \"corrupt\": %zu,\n", cache.corrupt);
  out += util::format("    \"bypassed\": %zu,\n", cache.bypassed);
  out += util::format("    \"stored\": %zu,\n", cache.stored);
  out += "    \"shard_cache\": [";
  for (std::size_t i = 0; i < report.cache_records.size(); ++i) {
    const auto& r = report.cache_records[i];
    out += i == 0 ? "\n" : ",\n";
    out += util::format(
        "      {\"provider\": \"%s\", \"key\": \"%s\", \"outcome\": \"%s\", "
        "\"stored\": %s, \"bytes\": %llu}",
        obs::json_escape(r.provider).c_str(),
        obs::json_escape(r.key_id).c_str(),
        std::string(core::cache_outcome_name(r.outcome)).c_str(),
        r.stored ? "true" : "false",
        static_cast<unsigned long long>(r.bytes));
  }
  out += report.cache_records.empty() ? "]\n" : "\n    ]\n";
  out += "  }\n";
  out += "}\n";
  return out;
}

}  // namespace vpna::analysis
