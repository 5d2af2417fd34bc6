// Full campaign driver: deploy the 62-provider testbed, run the complete
// test suite, and write the artefacts the paper published — a ranked
// selection-guide scorecard, per-provider Markdown reports, and a raw CSV.
//
//   ./full_campaign [output-dir] [--jobs N] [--faults PROFILE]
//                   [--speedtest] [--trace FILE] [--metrics FILE]
//                   [--trace-hops] [--status-file FILE] [--watchdog MULT]
//                   [--profile FILE] [--scale N] [--subscribers M]
//                   [--cache-dir DIR] [--cache off|rw|ro] [--explain-cache]
//                   [--isolate] [--resume] [--max-shard-retries N]
//
// Default output-dir is the current directory. --jobs selects the parallel
// campaign engine's worker count (0 = hardware concurrency, 1 = serial, at
// most 1024); results are byte-identical at any worker count for the same
// seed.
//
// --faults selects a deterministic fault-injection profile (off, flaky,
// hostile; default off). Fault schedules are seeded per shard, so payloads
// stay byte-identical at any --jobs. Vantage points or shards that exhaust
// their retries under a profile degrade gracefully: the run still exits 0,
// with a degradation summary on stderr and an appendix in scorecard.md.
//
// --speedtest provisions link capacities on every shard world and runs the
// capacity-aware speed-test suite per vantage point, writing speedtest.csv
// next to the other artefacts. Off by default; without it the campaign's
// artefacts are byte-identical to a build without the traffic plane.
//
// --status-file periodically (and atomically) rewrites FILE with a live
// progress JSON: percent complete, per-worker current shard, an ETA from
// the median wall of the shards computed this run (cache and journal
// replays excluded), and pool counters — poll it with `watch cat` or a
// dashboard. --watchdog MULT additionally flags any shard running longer
// than MULT × that median (structured records in the status file and the
// run manifest). In-process it only
// flags; under --isolate it is the hang budget: the flagged worker is
// sent SIGTERM, then SIGKILL, and its shard charged a crashed attempt.
// --profile enables the wall-clock phase profiler and writes the folded
// hot-phase report (self/total per phase plus a flame summary) to FILE.
// All three are wall-clock telemetry: they never change campaign payloads.
//
// Every run also writes run_manifest.json (scale_manifest.json under
// --scale) to the output dir: the deterministic cache key of the
// computation (catalog fingerprint, shard seeds or census options, fault/
// capacity profile, payload fingerprint) plus execution, cache, build and
// telemetry provenance. One call, analysis::render_paper_artefacts, renders
// every paper artefact once; the files are written from it and the
// manifest's payload fingerprint hashes its payload bytes.
//
// --scale N chooses the catalog and nothing else: a synthetic catalog of
// N providers, generated (seeded) from the evaluated providers' empirical
// distributions, replaces the 62, and each shard censuses its provider's
// shard world instead of running the suites. The run takes the same
// executor, flags and exit codes as the paper campaign and writes
// scale_census.csv (byte-identical at any --jobs, cache mode, isolation or
// resume point). --subscribers sets the modeled mean subscriber count per
// provider (default 1000; only a capped handful of eyeball clients
// materialize per shard). Which flags apply to which catalog:
//   both          --jobs --status-file --watchdog --profile --cache-dir
//                 --cache --explain-cache --isolate --resume
//                 --max-shard-retries
//   paper only    --faults (other than off) --speedtest --trace --metrics
//                 --trace-hops
//   census only   --subscribers
// A flag given to a catalog it does not apply to exits 2 with the reason.
//
// --cache-dir DIR points the content-addressed artifact store at DIR and
// (unless --cache overrides it) opens it read-write: each provider shard
// consults the store before building its world, replays a cached report on
// a hit, and files the encoded report back on a miss. Payloads are byte-
// identical with the cache off, cold, or warm — a warm re-run just skips
// the work. --cache ro consults without ever writing (shared store dirs);
// --cache off ignores the store. --explain-cache prints one line per shard
// with its content address and what the store did (hit/miss/corrupt/
// bypass). Corrupt artifacts (truncation, bit flips, foreign writers) are
// detected by checksum, recomputed, and — in rw mode — repaired in place;
// they are never merged. run_manifest.json carries the same provenance in
// its "cache" section. Traced runs (--trace/--metrics) bypass the cache.
//
// --trace writes a Chrome trace-event JSON of the whole campaign in
// sim-time (load it in https://ui.perfetto.dev; one lane per provider
// shard) and also enables the metrics registry; --metrics dumps the merged
// metrics as text (canonical section first, scheduling telemetry below the
// marker). --trace-hops additionally records a per-router instant for every
// packet hop — detailed, and much larger output. Traced runs cannot
// --isolate (a ShardTrace does not stream over the worker protocol).
//
// --isolate runs every shard in a supervised worker process forked from
// this one (the same workers the library, its tests and the benchmark
// use): a shard that segfaults, is OOM-killed, or hangs past the
// --watchdog budget is contained — retried on a fresh process, then
// crash-quarantined while the rest of the campaign completes. Payloads are
// byte-identical to in-process runs. Isolated runs also append a durable
// campaign.journal in the output dir (one fdatasync'd line per finished
// shard); after a crash or SIGKILL of the driver itself, re-running with
// --resume replays every journaled shard whose artifact is still in the
// --cache-dir store and recomputes only the rest — the final payload is
// byte-identical to an uninterrupted run. --max-shard-retries N bounds the
// re-runs a crashed/erroring shard gets, in or out of process (default 2;
// sets ExecutionOptions::shard_attempts = N + 1). SIGINT/SIGTERM are
// handled cooperatively under --isolate: workers are reaped, the final
// status JSON and a partial manifest are flushed, exit code 130. A
// --resume whose journal describes a different campaign is refused with
// exit code 2.
//
// Exit-code taxonomy:
//   0   completed; payload trustworthy (incl. graceful fault degradation)
//   1   hard shard failure (no fault profile; shard exhausted attempts)
//   2   usage error (incl. a numeric flag value that is not a whole,
//       in-range number, a flag the chosen catalog cannot apply, and a
//       refused --resume)
//   3   completed, but >=1 shard crash-quarantined under --isolate
//   130 interrupted (SIGINT/SIGTERM)
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>

#include "analysis/manifest.h"
#include "analysis/report_aggregation.h"
#include "analysis/report_writer.h"
#include "core/parallel_campaign.h"
#include "ecosystem/scale.h"
#include "faults/profile.h"
#include "obs/export.h"
#include "obs/profiler.h"
#include "obs/trace.h"

using namespace vpna;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: full_campaign [output-dir] [--jobs N] "
               "[--faults off|flaky|hostile] [--speedtest] [--trace FILE] "
               "[--metrics FILE] [--trace-hops] [--status-file FILE] "
               "[--watchdog MULT] [--profile FILE] [--scale N] "
               "[--subscribers M] [--cache-dir DIR] "
               "[--cache off|rw|ro] [--explain-cache] [--isolate] "
               "[--resume] [--max-shard-retries N]\n");
  return 2;
}

// Upper bounds of the numeric flags: a larger --jobs would start that many
// threads, a larger --scale catalog would not fit in memory.
constexpr std::size_t kMaxJobs = 1024;
constexpr std::size_t kMaxScale = 1'000'000;
constexpr int kMaxShardRetries = 100;

// The whole of `text` as one number of type T, or nullopt: a sign the type
// cannot hold ("-1" for a count), trailing junk ("4x"), no digits ("abc")
// and overflow are all refused rather than read as a prefix or wrapped.
template <typename T>
std::optional<T> parse_number(const char* text) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

// Reads a count flag's value into `out` when it is a whole number in
// [lo, hi]; otherwise prints the reason, and the caller exits 2 before
// anything is written.
template <typename T>
bool parse_count(const char* flag, const char* text, T lo, T hi, T& out) {
  const auto value = parse_number<T>(text);
  if (value && *value >= lo && *value <= hi) {
    out = *value;
    return true;
  }
  std::fprintf(stderr,
               "error: %s takes a whole number from %s to %s, not '%s'\n",
               flag, std::to_string(lo).c_str(), std::to_string(hi).c_str(),
               text);
  return false;
}

// Cooperative interrupt: the supervisor polls this flag between events,
// reaps its workers, and the driver flushes a partial manifest before
// exiting 130. sig_atomic_t store is the only thing the handler does.
volatile std::sig_atomic_t g_interrupt = 0;

void handle_interrupt(int) { g_interrupt = 1; }

void install_interrupt_handlers() {
  struct sigaction sa {};
  sa.sa_handler = handle_interrupt;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

// The paper catalog's files, written from the one render: the artefacts
// the paper published, plus the traced outputs when asked for.
void write_paper_artefacts(const std::filesystem::path& out_dir,
                           const analysis::PaperArtefacts& artefacts,
                           const core::CampaignReport& result,
                           const std::filesystem::path& trace_path,
                           const std::filesystem::path& metrics_path,
                           bool speed_test) {
  std::ofstream(out_dir / "campaign.csv") << artefacts.campaign_csv;
  // Traced runs get the deterministic metrics appendix and fault-profile
  // runs the degradation appendix; both are canonical, so scorecard.md
  // stays byte-identical at any --jobs.
  std::ofstream(out_dir / "scorecard.md") << artefacts.scorecard_md;
  std::printf("wrote %s and %s\n",
              (out_dir / "scorecard.md").string().c_str(),
              (out_dir / "campaign.csv").string().c_str());
  if (speed_test) {
    std::ofstream(out_dir / "speedtest.csv") << artefacts.speedtest_csv;
    std::printf("wrote %s\n", (out_dir / "speedtest.csv").string().c_str());
  }
  if (!trace_path.empty()) {
    std::ofstream(trace_path) << obs::chrome_trace_json(result.traces);
    std::printf("wrote %s (open in https://ui.perfetto.dev)\n",
                trace_path.string().c_str());
  }
  if (!metrics_path.empty()) {
    std::ofstream(metrics_path) << artefacts.metrics_text;
    std::printf("wrote %s\n", metrics_path.string().c_str());
  }
}

// The paper campaign's console summary: the headline numbers and, on
// stderr, what degraded under a fault profile.
void print_paper_summary(const core::CampaignReport& result,
                         faults::FaultProfile fault_profile) {
  const auto& reports = result.providers;
  const auto leakage = analysis::aggregate_leakage(reports);
  const auto manipulation = analysis::aggregate_manipulation(reports);
  int grade_counts[5] = {};
  for (const auto& report : reports)
    ++grade_counts[static_cast<int>(analysis::grade_provider(report))];
  std::printf("  tunnel-failure leakers: %zu of %d\n",
              leakage.tunnel_failure_leakers.size(),
              leakage.tunnel_failure_applicable);
  std::printf("  DNS leakers: %zu   IPv6 leakers: %zu\n",
              leakage.dns_leakers.size(), leakage.ipv6_leakers.size());
  std::printf("  transparent proxies: %zu   injectors: %zu\n",
              manipulation.transparent_proxies.size(),
              manipulation.content_injectors.size());
  std::printf("  grades: A=%d B=%d C=%d D=%d F=%d\n", grade_counts[0],
              grade_counts[1], grade_counts[2], grade_counts[3],
              grade_counts[4]);
  // A degraded-but-complete run still exits 0; scripts watching stderr
  // see what gave up and why.
  if (!result.degraded_providers.empty()) {
    const auto tally = analysis::tally_degradation(result);
    std::fprintf(stderr,
                 "degraded run: %zu provider(s) degraded "
                 "(%zu quarantined shard(s), %zu degraded vantage point(s)) "
                 "under --faults %s\n",
                 result.degraded_providers.size(), tally.quarantined_shards,
                 tally.degraded_vantage_points,
                 std::string(faults::profile_name(fault_profile)).c_str());
    for (const auto& name : result.degraded_providers)
      std::fprintf(stderr, "  degraded: %s\n", name.c_str());
  }
}

// What every campaign reports about its execution, whichever catalog ran.
void print_execution_summary(const core::ExecutionReport& result,
                             const core::ExecutionOptions& exec,
                             bool explain) {
  // Pool counters exist only in-process; worker processes have their own.
  if (!result.execution_isolated) {
    const auto pool = util::sum_counters(result.workers);
    // Efficiency: the share of the workers' combined capacity spent
    // inside shard tasks.
    const double capacity = static_cast<double>(result.jobs) * result.wall_s;
    std::printf("  engine: %zu workers, %llu shard runs, %llu steals, "
                "%llu retries, %.0f%% efficiency\n",
                result.jobs, static_cast<unsigned long long>(pool.tasks_run),
                static_cast<unsigned long long>(pool.steals),
                static_cast<unsigned long long>(result.retries),
                100.0 * (capacity <= 0.0 ? 0.0 : pool.busy_wall_s / capacity));
  } else {
    std::printf("  isolation: %zu worker spawn(s), %zu crash(es), "
                "%zu kill(s); %zu shard(s) resumed from journal\n",
                result.process_spawns, result.process_crashes,
                result.process_kills, result.resumed_shards);
  }
  if (exec.cache.enabled()) {
    const auto cache = core::summarize_cache(result.cache_records);
    std::printf("  cache (%s, %s): %zu hit, %zu miss, %zu corrupt, "
                "%zu bypassed; %zu stored; %.1f KiB read, %.1f KiB written\n",
                std::string(store::cache_mode_name(exec.cache.mode)).c_str(),
                exec.cache.dir.c_str(), cache.hits, cache.misses,
                cache.corrupt, cache.bypassed, cache.stored,
                cache.bytes_read / 1024.0, cache.bytes_written / 1024.0);
  }
  if (explain)
    for (const auto& r : result.cache_records)
      std::printf("  cache %-8s %s  %s%s (%llu bytes)\n",
                  std::string(core::cache_outcome_name(r.outcome)).c_str(),
                  r.key_id.c_str(), r.provider.c_str(),
                  r.stored ? "  [stored]" : "",
                  static_cast<unsigned long long>(r.bytes));
  // A hard failure (every attempt threw, no fault profile to degrade into)
  // exits 1. Crash quarantine is an engine-health event, not a shard
  // outcome: the rest merged cleanly, but the run exits 3.
  for (const auto& name : result.failed_providers)
    std::fprintf(stderr, "hard failure: %s threw on all %d attempt(s)\n",
                 name.c_str(), exec.shard_attempts);
  for (const auto& name : result.crash_quarantined_providers)
    std::fprintf(stderr,
                 "crash quarantine: %s lost its worker (crash, hang or "
                 "undecodable result) on all %d attempt(s)\n",
                 name.c_str(), exec.shard_attempts);
  if (!result.watchdog_alerts.empty()) {
    std::fprintf(stderr, "watchdog: %zu shard(s) ran past the median:\n",
                 result.watchdog_alerts.size());
    for (const auto& alert : result.watchdog_alerts)
      std::fprintf(stderr, "  %s: %.1fs elapsed vs %.1fs median (%.1fx)\n",
                   alert.shard.c_str(), alert.elapsed_s, alert.median_s,
                   alert.ratio());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::filesystem::path out_dir = ".";
  core::ExecutionOptions exec;
  std::filesystem::path trace_path;
  std::filesystem::path metrics_path;
  bool trace_hops = false;
  bool speed_test = false;
  std::filesystem::path profile_path;
  std::size_t scale = 0;
  std::uint32_t subscribers = 0;  // 0 = not given
  bool cache_mode_set = false;
  bool explain = false;
  faults::FaultProfile fault_profile = faults::FaultProfile::kOff;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0) {
      if (i + 1 >= argc) return usage();
      if (!parse_count("--jobs", argv[++i], std::size_t{0}, kMaxJobs,
                       exec.jobs))
        return 2;
    } else if (std::strcmp(argv[i], "--scale") == 0) {
      if (i + 1 >= argc) return usage();
      if (!parse_count("--scale", argv[++i], std::size_t{1}, kMaxScale, scale))
        return 2;
    } else if (std::strcmp(argv[i], "--subscribers") == 0) {
      if (i + 1 >= argc) return usage();
      if (!parse_count("--subscribers", argv[++i], std::uint32_t{1},
                       std::numeric_limits<std::uint32_t>::max(), subscribers))
        return 2;
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      if (i + 1 >= argc) return usage();
      const auto parsed = faults::parse_profile(argv[++i]);
      if (!parsed) return usage();
      fault_profile = *parsed;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) return usage();
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      if (i + 1 >= argc) return usage();
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-hops") == 0) {
      trace_hops = true;
    } else if (std::strcmp(argv[i], "--speedtest") == 0) {
      speed_test = true;
    } else if (std::strcmp(argv[i], "--status-file") == 0) {
      if (i + 1 >= argc) return usage();
      exec.status.file = argv[++i];
    } else if (std::strcmp(argv[i], "--watchdog") == 0) {
      if (i + 1 >= argc) return usage();
      const char* text = argv[++i];
      const auto multiple = parse_number<double>(text);
      if (!multiple || !std::isfinite(*multiple) || *multiple <= 0.0) {
        std::fprintf(stderr,
                     "error: --watchdog takes a positive number, not '%s'\n",
                     text);
        return 2;
      }
      exec.status.watchdog_multiple = *multiple;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      if (i + 1 >= argc) return usage();
      profile_path = argv[++i];
    } else if (std::strcmp(argv[i], "--cache-dir") == 0) {
      if (i + 1 >= argc) return usage();
      exec.cache.dir = argv[++i];
    } else if (std::strcmp(argv[i], "--cache") == 0) {
      if (i + 1 >= argc) return usage();
      if (!store::parse_cache_mode(argv[++i], &exec.cache.mode)) return usage();
      cache_mode_set = true;
    } else if (std::strcmp(argv[i], "--explain-cache") == 0) {
      explain = true;
    } else if (std::strcmp(argv[i], "--isolate") == 0) {
      exec.isolate = true;
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      exec.resume = true;
    } else if (std::strcmp(argv[i], "--max-shard-retries") == 0) {
      if (i + 1 >= argc) return usage();
      int retries = 0;
      if (!parse_count("--max-shard-retries", argv[++i], 0, kMaxShardRetries,
                       retries))
        return 2;
      exec.shard_attempts = retries + 1;
    } else if (argv[i][0] == '-') {
      return usage();
    } else {
      out_dir = argv[i];
    }
  }

  // Every flag either applies to the chosen catalog or is refused.
  const bool census = scale > 0;
  const bool traced =
      !trace_path.empty() || !metrics_path.empty() || trace_hops;
  const char* paper_only = fault_profile != faults::FaultProfile::kOff
                               ? "--faults"
                           : speed_test             ? "--speedtest"
                           : !trace_path.empty()    ? "--trace"
                           : !metrics_path.empty()  ? "--metrics"
                           : trace_hops             ? "--trace-hops"
                                                    : nullptr;
  if (census && paper_only != nullptr) {
    std::fprintf(stderr,
                 "error: %s applies only to the paper catalog; a --scale "
                 "census builds shard worlds and runs no test suites\n",
                 paper_only);
    return 2;
  }
  if (!census && subscribers != 0) {
    std::fprintf(stderr,
                 "error: --subscribers applies only to a --scale census\n");
    return 2;
  }
  // --resume replays an --isolate journal; it only makes sense isolated.
  if (exec.resume) exec.isolate = true;
  if (exec.isolate && traced) {
    std::fprintf(stderr,
                 "error: --isolate cannot run traced (--trace/--metrics/"
                 "--trace-hops): a ShardTrace does not stream over the "
                 "worker protocol\n");
    return 2;
  }

  std::filesystem::create_directories(out_dir);
  // --cache-dir alone opens the store read-write; an explicit --cache mode
  // always wins (so `--cache-dir D --cache ro` is a read-only consult).
  if (!exec.cache.dir.empty() && !cache_mode_set)
    exec.cache.mode = store::CacheMode::kReadWrite;
  // Process isolation: forked workers, a durable journal next to the
  // artefacts, and cooperative interrupt handling.
  if (exec.isolate) {
    exec.journal_path = (out_dir / "campaign.journal").string();
    exec.interrupt = &g_interrupt;
    install_interrupt_handlers();
  }
  if (exec.cache.enabled() && traced)
    std::fprintf(stderr,
                 "note: traced runs bypass the artifact cache "
                 "(a ShardTrace is not part of the cached artifact)\n");
  if (exec.resume && !exec.cache.enabled())
    std::fprintf(stderr,
                 "note: --resume without --cache-dir has no artifacts to "
                 "replay; journaled shards recompute\n");
  if (!profile_path.empty()) obs::Profiler::enable();

  // The one campaign path: --scale picks the catalog (and with it the
  // payload writer); execution, telemetry and exit codes are shared.
  core::CampaignOptions paper_opts;
  static_cast<core::ExecutionOptions&>(paper_opts) = exec;
  paper_opts.runner.vantage_points_per_provider = 3;
  paper_opts.runner.fault_profile = fault_profile;
  paper_opts.runner.speed_test = speed_test;
  // Any observability output requires the shards to run traced.
  paper_opts.trace.enabled = traced;
  paper_opts.trace.packet_hops = trace_hops;
  core::ScaledCampaignOptions census_opts;
  static_cast<core::ExecutionOptions&>(census_opts) = exec;
  std::optional<ecosystem::ScaledCatalog> catalog;
  if (census) {
    if (subscribers == 0) subscribers = 1000;
    std::printf(
        "generating scaled catalog: %zu providers, ~%u subscribers each...\n",
        scale, subscribers);
    catalog = ecosystem::generate_scaled_catalog(scale, subscribers,
                                                 census_opts.seed);
    std::printf("  %zu vantage points, %llu modeled subscribers, "
                "catalog fingerprint %016llx\n",
                catalog->total_vantage_points(),
                static_cast<unsigned long long>(catalog->total_subscribers()),
                static_cast<unsigned long long>(catalog->fingerprint()));
  }
  std::printf("running the %s (jobs=%zu, faults=%s%s%s)...\n",
              census ? "scaled census" : "full 62-provider campaign",
              exec.jobs,
              std::string(faults::profile_name(fault_profile)).c_str(),
              exec.isolate ? ", isolated workers" : "",
              exec.resume ? ", resuming" : "");

  core::CampaignReport paper;
  core::ScaledCampaignReport scaled;
  try {
    if (census)
      scaled = core::run_scaled_campaign(*catalog, census_opts);
    else
      paper = core::ParallelCampaign(paper_opts).run();
  } catch (const std::runtime_error& e) {
    // A refused --resume: the journal in the output dir belongs to a
    // different campaign.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  const core::ExecutionReport& result =
      census ? static_cast<const core::ExecutionReport&>(scaled) : paper;

  // Artefacts. An interrupted run's payload is incomplete, so only its
  // (partial) manifest is written — a later --resume regenerates the rest
  // from the journal. The serialize scope closes before the profile report
  // is taken, so the phase shows up in the profile file.
  std::optional<obs::Span> serialize_span(std::in_place, "campaign.serialize",
                                          "campaign");
  // One render of the paper artefacts: the files are written from it and
  // the manifest fingerprints its payload — the same bytes the determinism
  // suites compare. An interrupted run still fingerprints what it has.
  analysis::PaperArtefacts artefacts;
  if (!census) artefacts = analysis::render_paper_artefacts(paper);
  if (!result.interrupted) {
    if (census) {
      std::ofstream(out_dir / "scale_census.csv") << scaled.payload;
      std::printf("wrote %s\n",
                  (out_dir / "scale_census.csv").string().c_str());
    } else {
      write_paper_artefacts(out_dir, artefacts, paper, trace_path,
                            metrics_path, speed_test);
    }
  }
  const auto manifest_path =
      out_dir / (census ? "scale_manifest.json" : "run_manifest.json");
  std::ofstream(manifest_path)
      << (census ? analysis::render_scaled_manifest_json(scaled, census_opts)
                 : analysis::render_manifest_json(paper_opts, paper,
                                                  artefacts.payload));
  std::printf("wrote %s\n", manifest_path.string().c_str());
  serialize_span.reset();
  if (!profile_path.empty()) {
    std::ofstream(profile_path)
        << obs::render_profile_text(obs::Profiler::instance().report());
    std::printf("wrote %s (wall-clock profile)\n",
                profile_path.string().c_str());
  }
  if (result.interrupted) {
    std::fprintf(stderr,
                 "interrupted: campaign stopped early; wrote partial %s "
                 "(re-run with --resume to finish)\n",
                 manifest_path.string().c_str());
    return 130;
  }

  // Console summary.
  std::printf("\ncampaign complete in %.1fs (wall clock)\n", result.wall_s);
  print_execution_summary(result, exec, explain);
  if (census) {
    std::uint64_t hosts = 0;
    for (const auto& shard : scaled.shards) hosts += shard.hosts;
    std::printf("  shards: %zu   hosts: %llu   payload fingerprint: %016llx\n",
                scaled.shards.size(), static_cast<unsigned long long>(hosts),
                static_cast<unsigned long long>(scaled.payload_fingerprint));
    // Arena bytes count only worlds built in this process: an isolated
    // run built them in its workers, so it prints no made-up zero.
    if (!scaled.execution_isolated)
      std::printf("  host arena: %.1f MiB reserved, %.1f MiB used\n",
                  scaled.arena_reserved_bytes / (1024.0 * 1024.0),
                  scaled.arena_used_bytes / (1024.0 * 1024.0));
    std::printf("  driver peak RSS: %.1f MiB\n", scaled.peak_rss_kb / 1024.0);
  } else {
    print_paper_summary(paper, fault_profile);
  }
  // Exit-code contract: only hard shard failures (payload incomplete with
  // no structured outcome) and crash quarantine fail the invocation;
  // degraded-but-complete fault-profile runs exit 0.
  return analysis::campaign_exit_code(result);
}
