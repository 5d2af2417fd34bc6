// Campaign benchmark driver (run through run.py; see README.md).
//
//   campaign_bench info
//   campaign_bench setup --workload W --seed N
//   campaign_bench e2e   --workload W --seed N --seconds S --jobs J --work-dir D
//   campaign_bench trace --workload W --seed N --jobs J --work-dir D
//
// `setup` prints {"ready":true} once the workload could dispatch its first
// shard; run.py times it from process start. `e2e` repeats the workload's
// campaign call at jobs=1, jobs=J and isolated until S seconds are spent and
// prints the raw wall times. `trace` is the separate traced run: it times
// every layer from outside (mirror.h) and prints the raw per-layer samples.
// Every payload is checked (pinned fingerprints at the default seed, byte
// identity across modes otherwise) before anything is printed; a failed
// check exits 3 with the reason on stderr.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/manifest.h"
#include "analysis/report_aggregation.h"
#include "core/parallel_campaign.h"
#include "core/report_codec.h"
#include "ecosystem/evaluated.h"
#include "ecosystem/scale.h"
#include "ecosystem/testbed.h"
#include "mirror.h"
#include "store/artifact_store.h"
#include "util/mem.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/task_pool.h"

namespace {

using namespace vpna;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kDefaultSeed = 20181031;
constexpr std::uint64_t kPinnedCampaign = 0xb18430c525c24657ULL;
constexpr std::uint64_t kPinnedCensusPayload = 0x1cf6b988474a247fULL;
constexpr std::uint64_t kPinnedCensusCatalog = 0x19b44b1041db4ce3ULL;
constexpr std::size_t kCensusProviders = 1024;
constexpr std::uint32_t kCensusSubscribers = 1000;

enum class Workload { kPaper, kFlaky, kReplay, kCensus };
enum class Mode { kJ1, kJn, kIsolated };

constexpr const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kJ1: return "j1";
    case Mode::kJn: return "jn";
    case Mode::kIsolated: return "isolated";
  }
  return "?";
}

// The sanitizers slow everything by integer factors; their numbers would
// poison any comparison, so a sanitizer build refuses to report.
constexpr bool kSanitized =
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
    true;
#else
    false;
#endif
#else
    false;
#endif

[[noreturn]] void fail(const std::string& why) {
  std::fprintf(stderr, "campaign_bench: %s\n", why.c_str());
  std::fflush(stdout);
  std::_Exit(3);
}

std::string hex(std::uint64_t v) {
  return util::format("%016llx", static_cast<unsigned long long>(v));
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string array(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    s += util::format(i == 0 ? "%.17g" : ",%.17g", v[i]);
  return s + "]";
}

// Flat JSON object writer for the driver's single output line.
class Json {
 public:
  Json& num(std::string_view key, double v) {
    return raw(key, util::format("%.17g", v));
  }
  Json& count(std::string_view key, std::uint64_t v) {
    return raw(key, util::format("%llu", static_cast<unsigned long long>(v)));
  }
  Json& str(std::string_view key, std::string_view v) {
    return raw(key, "\"" + std::string(v) + "\"");
  }
  Json& nums(std::string_view key, const std::vector<double>& v) {
    return raw(key, array(v));
  }
  Json& raw(std::string_view key, const std::string& json) {
    body_ += body_.empty() ? "{" : ",";
    body_ += "\"" + std::string(key) + "\":" + json;
    return *this;
  }
  [[nodiscard]] std::string done() const {
    return body_.empty() ? "{}" : body_ + "}";
  }

 private:
  std::string body_;
};

struct Args {
  std::string mode;
  Workload workload = Workload::kPaper;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  std::size_t jobs = 4;
  std::filesystem::path work_dir = ".";
};

int usage() {
  std::fprintf(stderr,
               "usage: campaign_bench info | (setup|e2e|trace) --workload "
               "paper_campaign|flaky_campaign|campaign_replay|census_1024 "
               "[--seed N] [--seconds S] [--jobs J] [--work-dir D]\n");
  return 2;
}

std::optional<Args> parse_args(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Args a;
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      if (val == "paper_campaign") a.workload = Workload::kPaper;
      else if (val == "flaky_campaign") a.workload = Workload::kFlaky;
      else if (val == "campaign_replay") a.workload = Workload::kReplay;
      else if (val == "census_1024") a.workload = Workload::kCensus;
      else return std::nullopt;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--jobs") {
      a.jobs = std::max<std::size_t>(1, std::strtoul(val.c_str(), nullptr, 10));
    } else if (key == "--work-dir") {
      a.work_dir = val;
    } else {
      return std::nullopt;
    }
  }
  if ((argc - 2) % 2 != 0) return std::nullopt;
  return a;
}

core::RunnerOptions runner_options(Workload w) {
  core::RunnerOptions r;
  r.vantage_points_per_provider = 3;
  if (w == Workload::kFlaky) r.fault_profile = faults::FaultProfile::kFlaky;
  return r;
}

// The options full_campaign builds for the same command line.
core::CampaignOptions campaign_options(Workload w, std::size_t jobs,
                                       bool isolate) {
  core::CampaignOptions o;
  o.runner = runner_options(w);
  o.jobs = jobs;
  o.shard_attempts = 2;
  o.isolate = isolate;
  return o;
}

std::vector<std::string> provider_names() {
  std::vector<std::string> names;
  for (const auto& ep : ecosystem::evaluated_providers())
    names.push_back(ep.spec.name);
  return names;
}

// One campaign call's outcome, as the e2e loop and the checks see it.
struct Call {
  double wall_s = 0.0;
  std::string payload;
  std::size_t shards = 0;
  std::size_t failed = 0;  // failed + quarantined + crash-quarantined
  std::size_t hits = 0;
  std::size_t spawns = 0;
  std::vector<util::WorkerCounters> workers;
  std::optional<core::ScaledCampaignReport> census;
};

// Crash-quarantined shards carry the quarantined flag too, so this counts
// failed + quarantined + crash-quarantined once each.
std::size_t failed_shards(const core::CampaignReport& r) {
  std::size_t quarantined = 0;
  for (const auto& p : r.providers)
    if (p.quarantined) ++quarantined;
  return r.failed_providers.size() + quarantined;
}

// Set-up, preparation and the timed call of one workload.
class Workbench {
 public:
  Workbench(const Args& args) : args_(args) {}

  // Everything before the first shard dispatch (what setup_s covers).
  void setup() {
    generate_catalog();
    plane_ = ecosystem::shared_backbone_plane();
  }

  void generate_catalog() {
    if (args_.workload == Workload::kCensus && !catalog_)
      catalog_ = ecosystem::generate_scaled_catalog(
          kCensusProviders, kCensusSubscribers, args_.seed);
  }

  // Untimed preparation: campaign_replay's store is filled by one cold
  // read-write run, whose payload every replay must reproduce.
  void prepare() {
    if (args_.workload != Workload::kReplay) return;
    store_dir_ = args_.work_dir / util::format("replay-store-%llu",
                                               static_cast<unsigned long long>(
                                                   args_.seed));
    std::filesystem::remove_all(store_dir_);
    auto opts = campaign_options(args_.workload, args_.jobs, false);
    opts.cache.dir = store_dir_.string();
    opts.cache.mode = store::CacheMode::kReadWrite;
    core::ParallelCampaign campaign(opts);
    const auto report = campaign.run({}, args_.seed);
    cold_payload_ = analysis::serialize_campaign_payload(report);
    if (failed_shards(report) != 0 ||
        core::summarize_cache(report.cache_records).stored !=
            report.providers.size())
      fail("campaign_replay: the cold fill did not store every shard");
  }

  // Replays a store filled elsewhere (the traced run's store sweep).
  void adopt_store(const std::filesystem::path& dir, std::string payload) {
    store_dir_ = dir;
    cold_payload_ = std::move(payload);
  }

  void cleanup() {
    if (!store_dir_.empty()) std::filesystem::remove_all(store_dir_);
  }

  [[nodiscard]] const std::optional<std::string>& cold_payload() const {
    return cold_payload_;
  }
  [[nodiscard]] const ecosystem::ScaledCatalog& catalog() const {
    return *catalog_;
  }
  [[nodiscard]] const std::shared_ptr<const netsim::RoutingPlane>& plane()
      const {
    return plane_;
  }

  core::CampaignOptions options(Mode mode) const {
    auto o = campaign_options(args_.workload,
                              mode == Mode::kJ1 ? 1 : args_.jobs,
                              mode == Mode::kIsolated);
    if (args_.workload == Workload::kReplay) {
      o.cache.dir = store_dir_.string();
      o.cache.mode = store::CacheMode::kReadOnly;
    }
    return o;
  }

  core::ScaledCampaignOptions census_options(Mode mode) const {
    core::ScaledCampaignOptions o;
    o.seed = args_.seed;
    o.jobs = mode == Mode::kJ1 ? 1 : args_.jobs;
    o.isolate = mode == Mode::kIsolated;
    return o;
  }

  // One campaign call, timed up to and including payload serialization.
  Call call(Mode mode) const {
    Call c;
    const auto t0 = Clock::now();
    if (args_.workload == Workload::kCensus) {
      c.census = core::run_scaled_campaign(*catalog_, census_options(mode));
      c.payload = c.census->payload;
      c.wall_s = seconds_since(t0);
      c.shards = c.census->shards.size();
      c.failed = c.census->crashed_providers.size();
      c.spawns = c.census->process_spawns;
      return c;
    }
    core::ParallelCampaign campaign(options(mode));
    const auto report = campaign.run({}, args_.seed);
    c.payload = analysis::serialize_campaign_payload(report);
    c.wall_s = seconds_since(t0);
    c.shards = report.providers.size();
    c.failed = failed_shards(report);
    c.hits = core::summarize_cache(report.cache_records).hits;
    c.spawns = report.process_spawns;
    c.workers = report.workers;
    return c;
  }

 private:
  const Args& args_;
  std::optional<ecosystem::ScaledCatalog> catalog_;
  std::shared_ptr<const netsim::RoutingPlane> plane_;
  std::filesystem::path store_dir_;
  std::optional<std::string> cold_payload_;
};

// The correctness gate every reported number sits behind.
class PayloadCheck {
 public:
  PayloadCheck(const Args& args, const Workbench& bench)
      : args_(args) {
    if (bench.cold_payload()) pin(*bench.cold_payload(), "cold fill");
    if (args.workload == Workload::kCensus &&
        args.seed == kDefaultSeed &&
        bench.catalog().fingerprint() != kPinnedCensusCatalog)
      fail("census_1024: catalog fingerprint " +
           hex(bench.catalog().fingerprint()) + " != pinned " +
           hex(kPinnedCensusCatalog));
  }

  void operator()(const Call& c, const char* what) {
    if (c.shards != expected_shards())
      fail(util::format("%s: %zu shards, expected %zu", what, c.shards,
                        expected_shards()));
    if (args_.workload == Workload::kReplay && c.hits != c.shards)
      fail(util::format("%s: %zu/%zu cache hits", what, c.hits, c.shards));
    if (!expected_) pin(c.payload, what);
    if (c.payload != *expected_)
      fail(std::string(what) + ": payload differs from the first payload " +
           "of this run (fingerprints " + hex(util::fnv1a(c.payload)) +
           " vs " + hex(util::fnv1a(*expected_)) + ")");
  }

  [[nodiscard]] std::uint64_t fingerprint() const {
    return expected_ ? util::fnv1a(*expected_) : 0;
  }

 private:
  // The first payload of a run is the one every later payload must equal;
  // at the default seed it must also carry the pinned fingerprint.
  void pin(const std::string& payload, const char* what) {
    const std::uint64_t fp = util::fnv1a(payload);
    const std::uint64_t pinned = args_.workload == Workload::kCensus
                                     ? kPinnedCensusPayload
                                     : kPinnedCampaign;
    if (args_.seed == kDefaultSeed && fp != pinned)
      fail(std::string(what) + ": payload fingerprint " + hex(fp) +
           " != pinned " + hex(pinned));
    expected_ = payload;
  }

  [[nodiscard]] std::size_t expected_shards() const {
    return args_.workload == Workload::kCensus
               ? kCensusProviders
               : ecosystem::evaluated_providers().size();
  }

  const Args& args_;
  std::optional<std::string> expected_;
};

// ---------------------------------------------------------------------------
// e2e: repeat the three modes round-robin until the time budget is spent.

int run_e2e(const Args& args) {
  Workbench bench(args);
  bench.setup();
  bench.prepare();
  PayloadCheck check(args, bench);

  // Interleaved, so a slow spell of the machine lands on every mode alike
  // and the median of each discards it.
  const std::vector<Mode> cycle = {Mode::kJ1, Mode::kJn, Mode::kIsolated};
  // The first pooled call of a process pays for the workers' heap arenas;
  // one untimed call keeps that out of the medians.
  check(bench.call(Mode::kJn), "warm-up");

  std::map<Mode, std::vector<double>> samples;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t max_spawns = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const Mode mode = cycle[i % cycle.size()];
    auto& s = samples[mode];
    // Stop before a call that would overrun the budget, once every mode
    // has a sample.
    double expected = 0.0;
    for (double v : s) expected += v / static_cast<double>(s.size());
    if (i >= cycle.size() && seconds_since(t0) + expected > args.seconds)
      break;
    const Call c = bench.call(mode);
    check(c, mode_name(mode));
    s.push_back(c.wall_s);
    attempted += c.shards;
    failed += c.failed;
    if (mode == Mode::kIsolated) max_spawns = std::max(max_spawns, c.spawns);
  }
  const double measured_s = seconds_since(t0);
  bench.cleanup();
  if (max_spawns > args.jobs)
    fail(util::format("isolated mode spawned %zu workers for jobs=%zu",
                      max_spawns, args.jobs));

  Json out;
  out.nums("j1", samples[Mode::kJ1])
      .nums("jn", samples[Mode::kJn])
      .nums("isolated", samples[Mode::kIsolated])
      .num("measured_s", measured_s)
      .count("peak_rss_kb", util::peak_rss_kb())
      .count("attempted", attempted)
      .count("failed", failed)
      .count("isolated_spawns", max_spawns)
      .str("payload_fingerprint", hex(check.fingerprint()));
  std::printf("%s\n", out.done().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// trace: the outside-in traced run.

// Work counters read back from the registries the mirror bound per shard.
const std::vector<std::string>& counter_names() {
  static const std::vector<std::string> names = {
      "netsim.transacts",  "netsim.via_tunnel", "transport.exchanges",
      "transport.retries", "dns.lookups",       "tls.handshakes",
      "http.fetches",      "http.page_loads",   "faults.injected",
      "netsim.capture_packets"};
  return names;
}

std::uint64_t read_counter(const bench::ShardLayers& l, const std::string& n) {
  if (n == "netsim.transacts")
    return l.metrics.counter_prefix_sum("net.transact.");
  if (n == "netsim.via_tunnel") return l.metrics.counter("net.via_tunnel");
  if (n == "netsim.capture_packets") return l.capture_packets;
  return l.metrics.counter(n);
}

// The 62-provider campaign re-driven through the mirror, `passes` times.
struct MirrorResult {
  std::vector<core::ProviderReport> reports;  // first pass
  std::vector<double> shard_build_ms, shard_ms, ground_truth_ms, connect_ms;
  std::vector<std::vector<double>> suite_ms;  // [pass][suite], ms per pass
  std::vector<std::uint64_t> suite_exchanges;  // per suite, one pass
  std::vector<std::uint64_t> counters;         // counter_names() order
  std::vector<double> pass_wall_s;
  std::uint64_t hosts = 0;
  std::uint64_t arena_used_bytes = 0;
};

MirrorResult mirror_campaign(const Args& args, const Workbench& bench,
                             bench::SpanLog& log, int passes) {
  MirrorResult m;
  const auto names = provider_names();
  const auto options = runner_options(args.workload);
  int shard_id = 0;
  for (int pass = 0; pass < passes; ++pass) {
    std::vector<double> suite_ms(bench::kSuites.size(), 0.0);
    std::vector<std::uint64_t> exchanges(bench::kSuites.size(), 0);
    std::vector<std::uint64_t> counters(counter_names().size(), 0);
    std::uint64_t hosts = 0;
    std::uint64_t arena = 0;
    std::vector<core::ProviderReport> reports;
    const auto t0 = Clock::now();
    for (const auto& name : names) {
      bench::ShardLayers l;
      reports.push_back(bench::mirror_provider_shard(
          name, args.seed, options, bench.plane(), log, shard_id++, &l));
      m.shard_build_ms.push_back(l.build_ms);
      m.shard_ms.push_back(l.shard_ms);
      m.ground_truth_ms.push_back(l.ground_truth_ms);
      m.connect_ms.insert(m.connect_ms.end(), l.connect_ms.begin(),
                          l.connect_ms.end());
      for (std::size_t s = 0; s < bench::kSuites.size(); ++s) {
        suite_ms[s] += l.suite_ms[s];
        exchanges[s] += l.suite_exchanges[s];
      }
      for (std::size_t c = 0; c < counters.size(); ++c)
        counters[c] += read_counter(l, counter_names()[c]);
      hosts += l.hosts;
      arena += l.arena_used_bytes;
    }
    m.pass_wall_s.push_back(seconds_since(t0));
    m.suite_ms.push_back(suite_ms);
    if (pass == 0) {
      m.reports = std::move(reports);
      m.suite_exchanges = exchanges;
      m.counters = counters;
      m.hosts = hosts;
      m.arena_used_bytes = arena;
    } else {
      // Exact work counts must repeat; so must the reports themselves.
      if (counters != m.counters || exchanges != m.suite_exchanges)
        fail("traced run: work counters differ between mirror passes");
      if (!bench::mirror_drift(reports, m.reports).empty())
        fail("traced run: mirror reports differ between passes");
    }
  }
  return m;
}

// Mirror-drift guard: every mirrored report must encode exactly like the
// library's own core::run_provider_shard for the same provider and seed.
void guard_mirror(const Args& args, const Workbench& bench,
                  const MirrorResult& m) {
  const auto names = provider_names();
  const auto options = runner_options(args.workload);
  std::vector<core::ProviderReport> reference;
  {
    util::TaskPool pool(args.jobs);
    std::vector<std::future<core::ProviderReport>> futures;
    for (const auto& name : names)
      futures.push_back(pool.submit([&, name] {
        return core::run_provider_shard(name, args.seed, options,
                                        bench.plane());
      }));
    for (auto& f : futures) reference.push_back(f.get());
  }
  const auto drifted = bench::mirror_drift(m.reports, reference);
  if (!drifted.empty())
    fail(util::format("mirror drift: %zu of %zu providers differ from "
                      "core::run_provider_shard (first: %s)",
                      drifted.size(), names.size(), drifted[0].c_str()));
}

core::CampaignReport as_campaign(const Args& args,
                                 std::vector<core::ProviderReport> reports) {
  core::CampaignReport r;
  r.seed = args.seed;
  r.providers = std::move(reports);
  for (const auto& p : r.providers)
    if (p.degraded()) r.degraded_providers.push_back(p.provider);
  return r;
}

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// Store + codec sweep over the workload's shard artifacts: encode, put,
// fetch, decode, each timed per artifact.
struct StoreSweep {
  std::vector<double> encode_us, put_us, fetch_us, decode_us;
  std::uint64_t artifact_bytes = 0;
  double wall_s = 0.0;  // fetch + decode of every artifact
};

template <typename Record, typename Encode, typename Decode, typename Key>
StoreSweep store_sweep(const std::filesystem::path& dir,
                       const std::vector<Record>& records, Encode encode,
                       Decode decode, Key key_of) {
  StoreSweep s;
  std::filesystem::remove_all(dir);
  store::ArtifactStore art({dir.string(), store::CacheMode::kReadWrite});
  std::vector<std::string> encoded;
  for (const auto& r : records) {
    auto t0 = Clock::now();
    encoded.push_back(encode(r));
    s.encode_us.push_back(us_since(t0));
    t0 = Clock::now();
    if (!art.put(key_of(r), encoded.back())) fail("store: put failed");
    s.put_us.push_back(us_since(t0));
    s.artifact_bytes += encoded.back().size();
  }
  const auto sweep_t0 = Clock::now();
  for (std::size_t i = 0; i < records.size(); ++i) {
    auto t0 = Clock::now();
    auto fetched = art.fetch(key_of(records[i]));
    s.fetch_us.push_back(us_since(t0));
    if (fetched.status != store::FetchStatus::kHit)
      fail("store: an artifact just put did not fetch");
    Record decoded;
    t0 = Clock::now();
    const bool ok = decode(fetched.payload, &decoded);
    s.decode_us.push_back(us_since(t0));
    if (!ok || encode(decoded) != encoded[i])
      fail("store: an artifact did not decode to its own bytes");
  }
  s.wall_s = seconds_since(sweep_t0);
  return s;
}

// Pool and isolation figures of the workload's own campaign calls.
struct Executor {
  std::vector<double> busy_s, steals, efficiency, join_wait_s;
  std::vector<double> inproc_s, isolated_s;
  std::size_t spawns = 0;
};

void add_pool(Executor& e, const std::vector<util::WorkerCounters>& workers,
              double wall_s) {
  double busy = 0.0;
  double steals = 0.0;
  for (const auto& w : workers) {
    busy += w.busy_wall_s;
    steals += static_cast<double>(w.steals);
  }
  const double capacity = static_cast<double>(workers.size()) * wall_s;
  e.busy_s.push_back(busy);
  e.steals.push_back(steals);
  e.efficiency.push_back(capacity > 0.0 ? busy / capacity : 0.0);
  e.join_wait_s.push_back(capacity - busy);
}

int run_trace(const Args& args) {
  bench::SpanLog log;
  Workbench bench(args);
  Json out;
  const bool census = args.workload == Workload::kCensus;

  // Set-up layers, timed on their first (cold) call in this process.
  {
    bench::ScopedSpan span(log,
                           census ? "ecosystem.generate_scaled_catalog"
                                  : "ecosystem.evaluated_providers",
                           -1, -1);
    if (census) bench.generate_catalog();
    else (void)ecosystem::evaluated_providers();
    out.num("catalog_gen_ms", span.ms());
  }
  {
    bench::ScopedSpan span(log, "ecosystem.shared_backbone_plane", -1, -1);
    bench.setup();
    out.num("plane_build_ms", span.ms());
  }

  // Suite layers: the 62-provider campaign through the mirror. census_1024
  // runs no suite itself; one pass at its seed keeps every row measured.
  const MirrorResult m = mirror_campaign(args, bench, log, census ? 1 : 2);
  guard_mirror(args, bench, m);
  out.nums("ground_truth_ms", m.ground_truth_ms).nums("connect_ms", m.connect_ms);
  {
    Json suites;
    Json exchanges;
    for (std::size_t s = 0; s < bench::kSuites.size(); ++s) {
      std::vector<double> per_pass;
      for (const auto& pass : m.suite_ms) per_pass.push_back(pass[s]);
      suites.nums(bench::kSuites[s], per_pass);
      exchanges.count(bench::kSuites[s], m.suite_exchanges[s]);
    }
    out.raw("suite_ms", suites.done()).raw("suite_exchanges", exchanges.done());
    Json counters;
    for (std::size_t c = 0; c < counter_names().size(); ++c)
      counters.count(counter_names()[c], m.counters[c]);
    out.raw("counters", counters.done());
  }

  Executor ex;
  const auto fs_dir = args.work_dir / util::format(
      "trace-store-%llu", static_cast<unsigned long long>(args.seed));
  StoreSweep sweep;
  std::vector<double> serialize_ms;
  double traced_wall_s = 0.0;
  double untraced_j1_s = 0.0;

  if (census) {
    // Shard layers: every census shard through the mirror, serially.
    const auto opts = bench.census_options(Mode::kJ1);
    std::vector<core::ScaledShardCensus> mirrored;
    std::vector<double> build_ms, shard_ms;
    std::uint64_t hosts = 0;
    std::uint64_t arena = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < bench.catalog().providers.size(); ++i) {
      bench::CensusLayers l;
      mirrored.push_back(bench::mirror_census_shard(
          bench.catalog(), i, opts, bench.plane(), log,
          static_cast<int>(10000 + i), &l));
      build_ms.push_back(l.build_ms);
      shard_ms.push_back(l.shard_ms);
      hosts += l.hosts;
      arena += l.arena_used_bytes;
    }
    traced_wall_s = seconds_since(t0);
    out.nums("shard_build_ms", build_ms).nums("shard_ms", shard_ms);
    out.count("hosts", hosts).count("arena_used_bytes", arena);

    // Pool figures: the library's census shards on a benchmark-side pool
    // of jobs_n workers, which doubles as the census mirror's guard.
    std::vector<core::ScaledShardCensus> reference;
    {
      const auto pool_t0 = Clock::now();
      util::TaskPool pool(args.jobs);
      std::vector<std::future<core::ScaledShardCensus>> futures;
      for (std::size_t i = 0; i < bench.catalog().providers.size(); ++i)
        futures.push_back(pool.submit([&, i] {
          return core::run_scaled_census_shard(bench.catalog(), i, opts,
                                               bench.plane());
        }));
      for (auto& f : futures) reference.push_back(f.get());
      pool.wait_idle();
      add_pool(ex, pool.counters(), seconds_since(pool_t0));
    }
    const auto drifted = bench::census_drift(mirrored, reference);
    if (!drifted.empty())
      fail(util::format("census mirror drift: %zu shards differ (first: %s)",
                        drifted.size(), drifted[0].c_str()));

    sweep = store_sweep(
        fs_dir, mirrored, core::encode_shard_census,
        [](std::string_view b, core::ScaledShardCensus* c) {
          return core::decode_shard_census(b, c);
        },
        [&](const core::ScaledShardCensus& c) {
          return core::scaled_shard_key(bench.catalog(), c.provider, opts);
        });

    const Call j1 = bench.call(Mode::kJ1);
    untraced_j1_s = j1.wall_s;
    const Call jn = bench.call(Mode::kJn);
    const Call iso = bench.call(Mode::kIsolated);
    for (const Call* c : {&j1, &jn, &iso})
      if (c->payload != j1.payload) fail("census payloads differ across modes");
    if (args.seed == kDefaultSeed &&
        util::fnv1a(j1.payload) != kPinnedCensusPayload)
      fail("census_1024: payload fingerprint " + hex(util::fnv1a(j1.payload)));
    ex.inproc_s.push_back(jn.wall_s);
    ex.isolated_s.push_back(iso.wall_s);
    ex.spawns = iso.spawns;
    for (int i = 0; i < 5; ++i) {
      const auto t0s = Clock::now();
      (void)analysis::render_scaled_manifest_json(*jn.census,
                                                  bench.census_options(Mode::kJn));
      serialize_ms.push_back(seconds_since(t0s) * 1000.0);
    }
  } else {
    out.nums("shard_build_ms", m.shard_build_ms).nums("shard_ms", m.shard_ms);
    out.count("hosts", m.hosts).count("arena_used_bytes", m.arena_used_bytes);

    const auto options = runner_options(args.workload);
    sweep = store_sweep(
        fs_dir, m.reports, core::encode_provider_report,
        [](std::string_view b, core::ProviderReport* r) {
          return core::decode_provider_report(b, r);
        },
        [&](const core::ProviderReport& r) {
          return core::campaign_shard_key(r.provider, args.seed, options);
        });

    const auto campaign = as_campaign(args, m.reports);
    std::string payload;
    for (int i = 0; i < 5; ++i) {
      const auto t0 = Clock::now();
      payload = analysis::serialize_campaign_payload(campaign);
      serialize_ms.push_back(seconds_since(t0) * 1000.0);
    }
    if (args.seed == kDefaultSeed && util::fnv1a(payload) != kPinnedCampaign)
      fail("traced run: mirrored payload fingerprint " +
           hex(util::fnv1a(payload)) + " != pinned " + hex(kPinnedCampaign));

    // The workload's own calls. campaign_replay replays the store the
    // sweep just filled; its traced pass is that sweep plus serialization.
    if (args.workload == Workload::kReplay) bench.adopt_store(fs_dir, payload);
    PayloadCheck check(args, bench);
    const int repeats = args.workload == Workload::kReplay ? 20 : 2;
    const Call j1 = bench.call(Mode::kJ1);
    check(j1, "j1");
    untraced_j1_s = j1.wall_s;
    traced_wall_s = args.workload == Workload::kReplay
                        ? sweep.wall_s + serialize_ms[0] / 1000.0
                        : m.pass_wall_s[0] + serialize_ms[0] / 1000.0;
    for (int i = 0; i < repeats; ++i) {
      const Call jn = bench.call(Mode::kJn);
      check(jn, "jn");
      add_pool(ex, jn.workers, jn.wall_s);
      ex.inproc_s.push_back(jn.wall_s);
      const Call iso = bench.call(Mode::kIsolated);
      check(iso, "isolated");
      ex.isolated_s.push_back(iso.wall_s);
      ex.spawns = std::max(ex.spawns, iso.spawns);
    }
  }
  std::filesystem::remove_all(fs_dir);

  out.nums("store_encode_us", sweep.encode_us)
      .nums("store_put_us", sweep.put_us)
      .nums("store_fetch_us", sweep.fetch_us)
      .nums("store_decode_us", sweep.decode_us)
      .count("store_artifact_bytes", sweep.artifact_bytes)
      .nums("serialize_ms", serialize_ms)
      .nums("pool_busy_s", ex.busy_s)
      .nums("pool_steals", ex.steals)
      .nums("pool_efficiency", ex.efficiency)
      .nums("join_wait_s", ex.join_wait_s)
      .nums("inproc_s", ex.inproc_s)
      .nums("isolated_s", ex.isolated_s)
      .count("isolate_spawns", ex.spawns)
      .num("traced_wall_s", traced_wall_s)
      .num("untraced_j1_s", untraced_j1_s)
      .count("traced_shards",
             m.shard_ms.size() +
                 (census ? bench.catalog().providers.size() : 0));

  const auto spans_path =
      args.work_dir / util::format("spans-%s-%llu.json",
                                   census ? "census" : "campaign",
                                   static_cast<unsigned long long>(args.seed));
  std::ofstream(spans_path) << log.to_json();
  out.str("spans", spans_path.string());
  std::printf("%s\n", out.done().c_str());
  return 0;
}

int run_setup(const Args& args) {
  Workbench bench(args);
  bench.setup();
  std::printf("{\"ready\":true}\n");
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "info") == 0) {
    Json out;
    out.str("build_type", CAMPAIGN_BENCH_BUILD_TYPE)
        .str("compiler", CAMPAIGN_BENCH_COMPILER)
        .raw("sanitized", kSanitized ? "true" : "false");
    std::printf("%s\n", out.done().c_str());
    return 0;
  }
  const auto args = parse_args(argc, argv);
  if (!args) return usage();
  if (kSanitized) fail("refusing to measure a sanitizer build");
  std::filesystem::create_directories(args->work_dir);
  if (args->mode == "setup") return run_setup(*args);
  if (args->mode == "e2e") return run_e2e(*args);
  if (args->mode == "trace") return run_trace(*args);
  return usage();
}
