#include "core/parallel_campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/report_codec.h"
#include "core/shard_supervisor.h"
#include "core/worker_protocol.h"
#include "ecosystem/evaluated.h"
#include "ecosystem/testbed.h"
#include "faults/profile.h"
#include "obs/profiler.h"
#include "store/code_epoch.h"
#include "store/journal.h"
#include "util/mem.h"
#include "util/rng.h"
#include "util/strings.h"

namespace vpna::core {

// run_provider_shard lives in runner.cpp, next to the TestRunner it drives.

std::string_view cache_outcome_name(ShardCacheRecord::Outcome outcome) noexcept {
  switch (outcome) {
    case ShardCacheRecord::Outcome::kBypass:
      return "bypass";
    case ShardCacheRecord::Outcome::kHit:
      return "hit";
    case ShardCacheRecord::Outcome::kMiss:
      return "miss";
    case ShardCacheRecord::Outcome::kCorrupt:
      return "corrupt";
  }
  return "bypass";
}

CacheSummary summarize_cache(
    const std::vector<ShardCacheRecord>& records) noexcept {
  CacheSummary s;
  s.shards = records.size();
  for (const auto& r : records) {
    switch (r.outcome) {
      case ShardCacheRecord::Outcome::kBypass: ++s.bypassed; break;
      case ShardCacheRecord::Outcome::kHit:
        ++s.hits;
        s.bytes_read += r.bytes;
        break;
      case ShardCacheRecord::Outcome::kMiss: ++s.misses; break;
      case ShardCacheRecord::Outcome::kCorrupt: ++s.corrupt; break;
    }
    if (r.stored) {
      ++s.stored;
      s.bytes_written += r.bytes;
    }
  }
  return s;
}

store::ShardKey campaign_shard_key(const std::string& name, std::uint64_t seed,
                                   const RunnerOptions& options) {
  store::ShardKey key;
  key.code_epoch = store::kCodeEpoch;
  key.payload_format = kShardReportFormatVersion;
  key.catalog_fingerprint = ecosystem::provider_catalog_fingerprint(name);
  key.shard_seed = ecosystem::shard_seed(seed, name);
  key.fault_profile = std::string(faults::profile_name(options.fault_profile));
  key.link_capacities = options.speed_test;
  key.runner_options_fingerprint = runner_options_fingerprint(options);
  return key;
}

namespace {

// --- the shard executor ------------------------------------------------------
// Every campaign is "compute N pure shards, merge them in catalog order".
// execute_shards() is that loop, once: generic over the shard kind through
// the hooks in ShardKind, with two backends — an in-process TaskPool of
// `jobs` workers (at jobs == 1 the calling thread is the one worker) and
// the supervised worker processes of ShardSupervisor. Both feed one
// terminal-outcome handler.

// How a shard's execution ended.
enum class ShardEnd : std::uint8_t {
  kComputed,  // ran to completion this run
  kCached,    // replayed from the artifact store
  kFailed,    // every attempt threw (in-process) or sent an error frame
  kCrashed,   // every isolated attempt died, or its result did not decode
  kSkipped,   // interrupted before it finished
};

// The hooks a shard kind plugs into the executor. `decode` also checks
// that the bytes belong to shard i (a foreign artifact is corrupt).
template <typename R>
struct ShardKind {
  std::vector<std::string> names;  // canonical order
  std::function<store::ShardKey(std::size_t)> key;
  std::function<R(std::size_t)> compute;
  std::function<std::string(const R&)> encode;
  std::function<bool(std::string_view, std::size_t, R*)> decode;
  std::function<R(std::size_t, ShardEnd)> placeholder;
};

struct ExecOptions {
  std::size_t jobs = 1;  // 0 = hardware concurrency
  int attempts = 1;      // total attempts per shard, either backend
  bool graceful = true;  // exhausted failures quarantine, not hard-fail
  bool isolate = false;
  SupervisorOptions supervisor;  // isolated only; jobs/attempts filled in
  store::CacheConfig cache;
  bool cache_bypass = false;  // keys and records, but no consult or put
  obs::StatusBoard* status = nullptr;
  obs::StatusOptions status_opts;
  std::string journal_path;  // empty = no journal
  bool resume = false;
  store::JournalHeader journal_header;
};

template <typename R>
struct ShardRun {
  std::vector<R> results;  // canonical order; placeholders where not done
  std::vector<ShardEnd> ends;
  std::vector<ShardCacheRecord> cache_records;  // empty when the cache is off
  std::vector<util::WorkerCounters> workers;    // in-process backend
  SupervisorResult supervisor;                  // isolated backend
  std::size_t jobs = 1;
  std::size_t resumed = 0;
};

std::string current_error() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

// VPNA_CRASH_SHARD=<i>:throw[:always] makes shard i's compute hook throw:
// the in-process backend sees a thrown task, a fork-mode worker sends an
// error frame. The worker-only modes (segv/exit/hang) are ignored here.
std::optional<CrashDirective> injected_throw() {
  const char* spec = std::getenv("VPNA_CRASH_SHARD");
  auto d = parse_crash_directive(spec == nullptr ? "" : spec);
  if (d && d->mode != CrashDirective::Mode::kThrow) d.reset();
  return d;
}

template <typename R>
ShardRun<R> execute_shards(const ShardKind<R>& kind, const ExecOptions& opts) {
  const std::size_t n = kind.names.size();
  const int attempts = std::max(opts.attempts, 1);
  obs::StatusBoard* status = opts.status;
  ShardRun<R> run;
  run.results.resize(n);
  run.ends.assign(n, ShardEnd::kSkipped);

  // Content-addressed cache: one key per shard, derived up front.
  std::optional<store::ArtifactStore> store;
  std::vector<store::ShardKey> keys;
  if (opts.cache.enabled()) {
    store.emplace(opts.cache);
    run.cache_records.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      keys.push_back(kind.key(i));
      run.cache_records[i].provider = kind.names[i];
      run.cache_records[i].key_id = keys[i].id();
    }
  }
  const bool consult = store.has_value() && !opts.cache_bypass;
  const bool write_back = consult && store->config().writable();

  // Journal: a resume marks the shards journaled done under the same key
  // as replayable; then one append-only record per terminal outcome.
  std::vector<char> replayable(n, 0);
  std::optional<store::CampaignJournal> journal;
  if (!opts.journal_path.empty()) {
    store::JournalHeader old;
    std::vector<store::JournalEntry> entries;
    const bool resumed =
        opts.resume &&
        store::CampaignJournal::load(opts.journal_path, &old, &entries);
    if (resumed && old.campaign_fingerprint !=
                       opts.journal_header.campaign_fingerprint)
      throw std::runtime_error(
          "ParallelCampaign: --resume refused — the journal describes a "
          "different campaign configuration (seed, code epoch, options, "
          "or provider selection changed)");
    for (const auto& e : entries)
      if (resumed && consult && e.outcome == "done" && e.index < n &&
          e.provider == kind.names[e.index] &&
          (e.key_id.empty() || e.key_id == keys[e.index].id()))
        replayable[e.index] = 1;
    journal = store::CampaignJournal::open(opts.journal_path,
                                           opts.journal_header, !resumed);
  }

  // The terminal-outcome handler, called exactly once per shard and
  // serialized here (pool workers race to it; the supervisor's poll loop
  // never does). The only place a finished shard becomes a result or
  // placeholder, a cache artifact, a journal line and a status transition.
  std::mutex settle_mu;
  const auto settle = [&](std::size_t i, ShardEnd end, int attempts_used,
                          R* value = nullptr, std::string_view bytes = {},
                          std::string_view detail = {}) {
    std::lock_guard<std::mutex> lock(settle_mu);
    const bool ok = end == ShardEnd::kComputed || end == ShardEnd::kCached;
    const bool replayed = end == ShardEnd::kCached && replayable[i] != 0;
    run.ends[i] = end;
    run.results[i] = ok ? std::move(*value) : kind.placeholder(i, end);
    if (replayed) ++run.resumed;
    if (!run.cache_records.empty()) {
      auto& record = run.cache_records[i];
      if (end == ShardEnd::kComputed && write_back) {
        obs::ProfileScope profile("campaign.cache");
        if (store->put(keys[i], bytes)) {
          record.stored = true;
          record.bytes = bytes.size();
        }
      } else if (!ok) {
        // Exhausted shards leave a placeholder, never an artifact; the
        // provenance record says the cache played no part.
        record.outcome = ShardCacheRecord::Outcome::kBypass;
        record.bytes = 0;
      }
    }
    if (end == ShardEnd::kSkipped) return;
    const bool quarantined =
        end == ShardEnd::kCrashed || (end == ShardEnd::kFailed && opts.graceful);
    if (status != nullptr)
      status->shard_finished(i, ok            ? obs::StatusBoard::Outcome::kDone
                                : quarantined ? obs::StatusBoard::Outcome::kQuarantined
                                              : obs::StatusBoard::Outcome::kFailed);
    // A journal replay is already on the record.
    if (!journal || !journal->valid() || replayed) return;
    store::JournalEntry e;
    e.index = i;
    e.provider = kind.names[i];
    e.outcome = ok ? "done" : quarantined ? "quarantined" : "failed";
    if (!keys.empty()) e.key_id = keys[i].id();
    e.attempts = attempts_used;
    e.detail = end == ShardEnd::kCached ? "cache-hit" : std::string(detail);
    journal->record(e);
  };

  // Consults the store for shard i; a decodable hit settles it uncomputed.
  const auto replay = [&](std::size_t i) {
    if (!consult) return false;
    auto& record = run.cache_records[i];
    store::FetchResult fetched;
    R value;
    bool hit = false;
    {
      obs::ProfileScope profile("campaign.cache");
      fetched = store->fetch(keys[i]);
      hit = fetched.status == store::FetchStatus::kHit &&
            kind.decode(fetched.payload, i, &value);
      // Integrity-valid but undecodable (foreign writer, or a codec change
      // that forgot its version bump) is corrupt too: evict it (rw only)
      // so the recompute's put lands clean.
      if (!hit && fetched.status == store::FetchStatus::kHit)
        store->discard(keys[i]);
    }
    using CacheEvent = obs::StatusBoard::CacheEvent;
    const bool corrupt = !hit && fetched.status != store::FetchStatus::kMiss;
    record.outcome = hit       ? ShardCacheRecord::Outcome::kHit
                     : corrupt ? ShardCacheRecord::Outcome::kCorrupt
                               : ShardCacheRecord::Outcome::kMiss;
    if (status != nullptr)
      status->cache_event(hit       ? CacheEvent::kHit
                          : corrupt ? CacheEvent::kCorrupt
                                    : CacheEvent::kMiss);
    if (!hit) return false;
    record.bytes = fetched.payload.size();
    settle(i, ShardEnd::kCached, 0, &value);
    return true;
  };

  const auto injected = injected_throw();
  const auto compute = [&](std::size_t i, int attempt) {
    if (injected && injected->index == i && (injected->always || attempt == 1))
      throw std::runtime_error(
          util::format("injected failure in shard %zu (VPNA_CRASH_SHARD)", i));
    return kind.compute(i);
  };

  run.jobs = opts.jobs == 0 ? std::max(1u, std::thread::hardware_concurrency())
                            : opts.jobs;
  if (status != nullptr) status->begin(kind.names, run.jobs);

  if (opts.isolate) {
    // Cache consults, artifact puts and journal appends stay in this
    // process; workers only compute. The supervisor is single-threaded
    // (fork safety), so status ticks inline and settle runs on its poll
    // loop.
    std::vector<std::size_t> todo;
    for (std::size_t i = 0; i < n; ++i) {
      if (consult && status != nullptr) status->shard_started(i, -1);
      if (!replay(i)) todo.push_back(i);
    }
    SupervisorOptions sup = opts.supervisor;
    sup.jobs = run.jobs;
    sup.attempts = attempts;
    // Runs in the worker (fork mode). The frame payload is the canonical
    // encoding — the bytes a cache artifact holds.
    ShardSupervisor supervisor(sup, kind.names,
                               [&](std::uint32_t index, std::uint32_t attempt) {
                                 return kind.encode(compute(
                                     index, static_cast<int>(attempt)));
                               });
    run.supervisor = supervisor.run(
        todo, status, opts.status_opts,
        [&](std::size_t i, const SupervisedShard& s) {
          R value;
          if (s.outcome == SupervisedShard::Outcome::kError)
            settle(i, ShardEnd::kFailed, s.attempts, nullptr, {}, s.error);
          else if (s.outcome != SupervisedShard::Outcome::kDone)
            settle(i, ShardEnd::kCrashed, s.attempts, nullptr, {}, s.error);
          else if (kind.decode(s.payload, i, &value))
            settle(i, ShardEnd::kComputed, s.attempts, &value, s.payload);
          else  // a checksummed frame that doesn't decode is codec skew
            settle(i, ShardEnd::kCrashed, s.attempts, nullptr, {},
                   "result frame did not decode");
        });
    for (std::size_t i : todo)
      if (run.supervisor.shards[i].outcome == SupervisedShard::Outcome::kSkipped)
        settle(i, ShardEnd::kSkipped, 0);
    run.supervisor.shards.clear();
    return run;
  }

  // jobs == 1 runs the same tasks on the calling thread: a one-worker pool
  // adds only a thread whose malloc arena outlives the run (measured: +65%
  // peak RSS on a cached replay).
  std::optional<util::TaskPool> pool;
  if (run.jobs > 1) pool.emplace(run.jobs);
  util::WorkerCounters caller;
  // Declared after the pool so it joins (and takes its final counter
  // snapshot) before the pool is torn down.
  std::optional<obs::StatusMonitor> monitor;
  if (status != nullptr)
    monitor.emplace(*status, opts.status_opts, [&pool] {
      std::vector<obs::WorkerStatus> rows;
      if (pool)
        for (const auto& c : pool->counters())
          rows.push_back({c.tasks_run, c.steals, c.retries, c.busy_wall_s});
      return rows;
    });
  // Attempts started per shard. The pool re-runs a thrown task on the
  // worker that ran it, so each slot has a single writer.
  std::vector<int> tries(n, 0);
  util::TaskOptions task_opts;
  task_opts.max_attempts = attempts;
  for (std::size_t i = 0; i < n; ++i) {
    const auto task = [&, i] {
      // Heartbeats bracket every attempt: started restarts the shard's
      // watchdog clock, a thrown attempt parks it back in pending.
      if (status != nullptr)
        status->shard_started(i, util::TaskPool::current_worker_index());
      if (tries[i] == 0 && replay(i)) return;
      const int attempt = ++tries[i];
      R value;
      std::string bytes;
      try {
        value = compute(i, attempt);
        if (write_back) bytes = kind.encode(value);
      } catch (...) {
        if (attempt < attempts) {
          if (status != nullptr) status->shard_attempt_failed(i);
        } else {
          settle(i, ShardEnd::kFailed, attempt, nullptr, {}, current_error());
        }
        throw;  // the pool retries, or drops the exhausted exception
      }
      settle(i, ShardEnd::kComputed, attempt, &value, bytes);
    };
    if (pool)
      (void)pool->submit(task, task_opts);
    else
      util::TaskPool::run_inline(task, task_opts, caller);
  }
  if (pool) pool->wait_idle();
  run.workers = pool ? pool->counters() : std::vector{caller};
  return run;
}

// --- the paper campaign -------------------------------------------------------

// Binds a journal to one campaign configuration: the journaled outcomes
// describe a computation of exactly (seed, code epoch, runner options,
// canonical selection) — resume against anything else is refused.
std::uint64_t campaign_execution_fingerprint(
    const std::vector<std::string>& selection, std::uint64_t seed,
    const RunnerOptions& options) {
  std::string canon = util::format(
      "vpna-campaign-exec-v1\x1f%llu\x1f%u\x1f%llu\x1f",
      static_cast<unsigned long long>(seed), store::kCodeEpoch,
      static_cast<unsigned long long>(runner_options_fingerprint(options)));
  for (const auto& name : selection) {
    canon += name;
    canon.push_back('\x1f');
  }
  return util::fnv1a(canon);
}

// A provider shard's report and trace travel together, so a retried shard
// can never pair one attempt's report with another's trace.
struct CampaignShard {
  ProviderReport report;
  obs::ShardTrace trace;
};

}  // namespace

ParallelCampaign::ParallelCampaign(CampaignOptions options)
    : options_(std::move(options)) {}

CampaignReport ParallelCampaign::run(const std::vector<std::string>& names,
                                     std::uint64_t seed) {
  if (options_.isolate && options_.trace.enabled)
    throw std::invalid_argument(
        "ParallelCampaign: --isolate cannot trace shards (a ShardTrace does "
        "not stream over the worker frame protocol)");
  const auto t0 = std::chrono::steady_clock::now();
  const bool traced = options_.trace.enabled;
  // Under a fault profile, shards that exhaust every attempt degrade
  // gracefully into quarantine instead of failing the campaign.
  const bool graceful =
      options_.runner.fault_profile != faults::FaultProfile::kOff;
  // One all-pairs plane serves every shard (their core topologies are
  // identical); computed up front so no shard pays the Dijkstra sweep.
  const auto plane = ecosystem::shared_backbone_plane();

  // Canonical catalog order, unknown names dropped, duplicates collapsed.
  ShardKind<CampaignShard> kind;
  for (const auto& ep : ecosystem::evaluated_providers())
    if (names.empty() ||
        std::find(names.begin(), names.end(), ep.spec.name) != names.end())
      kind.names.push_back(ep.spec.name);
  const auto& selection = kind.names;
  kind.key = [&](std::size_t i) {
    return campaign_shard_key(selection[i], seed, options_.runner);
  };
  kind.compute = [&](std::size_t i) {
    // A fresh trace per attempt: a retried shard's trace holds only the
    // run that succeeded, identical to a first-try trace.
    CampaignShard s;
    s.report = run_provider_shard(selection[i], seed, options_.runner,
                                  options_.trace, traced ? &s.trace : nullptr,
                                  plane);
    return s;
  };
  kind.encode = [](const CampaignShard& s) {
    return encode_provider_report(s.report);
  };
  kind.decode = [&](std::string_view bytes, std::size_t i, CampaignShard* s) {
    return decode_provider_report(bytes, &s->report) &&
           s->report.provider == selection[i];
  };
  // A placeholder keeps the provider's slot (and catalog order) without
  // fabricating measurements. Under an active fault profile an exhausted
  // shard is a structured degraded outcome flagged quarantined; crashes
  // always quarantine.
  kind.placeholder = [&](std::size_t i, ShardEnd end) {
    CampaignShard s;
    s.report.provider = selection[i];
    s.report.quarantined =
        end == ShardEnd::kCrashed || (end == ShardEnd::kFailed && graceful);
    if (const auto* ep = ecosystem::evaluated_provider(selection[i])) {
      s.report.subscription = ep->spec.subscription;
      s.report.has_custom_client = ep->spec.has_custom_client;
    }
    s.trace.shard = selection[i];
    s.trace.metrics.add(s.report.quarantined ? "shard.quarantined"
                                             : "shard.failed");
    return s;
  };

  // Health plane: a StatusBoard receives shard heartbeats from whichever
  // backend runs. Telemetry only — shard results cannot observe it.
  std::optional<obs::StatusBoard> board;
  if (options_.status.engaged()) board.emplace();

  ExecOptions exec;
  exec.jobs = options_.jobs;
  exec.attempts = options_.shard_attempts;
  exec.graceful = graceful;
  exec.isolate = options_.isolate;
  exec.supervisor.shard_timeout_s = options_.shard_timeout_s;
  exec.supervisor.term_grace_s = options_.term_grace_s;
  exec.supervisor.watchdog_multiple = options_.status.watchdog_multiple;
  exec.supervisor.watchdog_min_completed = options_.status.watchdog_min_completed;
  exec.supervisor.worker_argv = options_.worker_argv;
  exec.supervisor.interrupt = options_.interrupt;
  exec.cache = options_.cache;
  // Traced runs bypass: a ShardTrace is not part of the cached artifact,
  // so a hit could not reproduce one.
  exec.cache_bypass = traced;
  exec.status = board ? &*board : nullptr;
  exec.status_opts = options_.status;
  exec.journal_path = options_.journal_path;
  exec.resume = options_.resume;
  exec.journal_header.campaign_fingerprint =
      campaign_execution_fingerprint(selection, seed, options_.runner);
  exec.journal_header.seed = seed;
  exec.journal_header.shards = selection.size();
  exec.journal_header.cache_dir = options_.cache.dir;

  auto run = execute_shards(kind, exec);

  CampaignReport report;
  report.seed = seed;
  report.jobs = run.jobs;
  report.execution_isolated = options_.isolate;
  for (std::size_t i = 0; i < selection.size(); ++i) {
    report.providers.push_back(std::move(run.results[i].report));
    if (traced) report.traces.push_back(std::move(run.results[i].trace));
    if (run.ends[i] == ShardEnd::kFailed && !graceful)
      report.failed_providers.push_back(selection[i]);
    if (run.ends[i] == ShardEnd::kCrashed)
      report.crash_quarantined_providers.push_back(selection[i]);
    // Canonical order, never scheduling: part of the deterministic payload.
    if (report.providers.back().degraded())
      report.degraded_providers.push_back(selection[i]);
  }
  report.workers = std::move(run.workers);
  report.cache_records = std::move(run.cache_records);
  report.resumed_shards = run.resumed;
  report.interrupted = run.supervisor.interrupted;
  report.process_spawns = run.supervisor.spawns;
  report.process_crashes = run.supervisor.crashes;
  report.process_kills = run.supervisor.kills;
  report.process_timeouts = run.supervisor.timeouts;
  report.processes = std::move(run.supervisor.processes);
  report.watchdog_alerts = board ? board->alerts() : run.supervisor.alerts;
  report.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return report;
}

// --- scaled campaigns ---------------------------------------------------------

namespace {

// One shard's census: builds the provider's shard world, counts it, and
// fingerprints the target provider's vantage addresses in deployment order
// (FNV). Pure. The world lives only inside this call, so peak RSS is
// bounded by the live workers, not the shard count. `arena` (optional)
// accumulates the world's {reserved, used} host-arena bytes.
ScaledShardCensus census_shard(const ecosystem::ScaledCatalog& catalog,
                               std::size_t index,
                               const ScaledCampaignOptions& options,
                               std::shared_ptr<const netsim::RoutingPlane> plane,
                               std::atomic<std::uint64_t>* arena = nullptr) {
  const auto& name = catalog.providers[index].spec.name;
  ecosystem::ScaledShardOptions shard_opts;
  shard_opts.max_clients = options.max_clients;
  const auto tb = ecosystem::build_scaled_shard(catalog, name, options.seed,
                                                std::move(plane), shard_opts);
  ScaledShardCensus census;
  census.provider = name;
  census.modeled_subscribers = catalog.subscribers[index];
  census.clients = std::min(options.max_clients, catalog.subscribers[index]);
  if (!tb.world) return census;
  if (arena != nullptr) {
    arena[0].fetch_add(tb.world->host_arena_reserved_bytes(),
                       std::memory_order_relaxed);
    arena[1].fetch_add(tb.world->host_arena_used_bytes(),
                       std::memory_order_relaxed);
  }
  census.hosts = static_cast<std::uint32_t>(tb.world->host_count());
  const auto* deployed = tb.provider(name);
  if (deployed != nullptr) {
    census.vantage_points =
        static_cast<std::uint32_t>(deployed->vantage_points.size());
    std::string canon;
    for (const auto& vp : deployed->vantage_points) {
      canon += vp.addr.str();
      canon.push_back('\x1f');
    }
    census.address_fingerprint = util::fnv1a(canon);
  }
  return census;
}

}  // namespace

ScaledShardCensus run_scaled_census_shard(
    const ecosystem::ScaledCatalog& catalog, std::size_t index,
    const ScaledCampaignOptions& options,
    std::shared_ptr<const netsim::RoutingPlane> plane) {
  if (index >= catalog.providers.size())
    throw std::invalid_argument(
        "run_scaled_census_shard: shard index out of range");
  return census_shard(catalog, index, options, std::move(plane));
}

store::ShardKey scaled_shard_key(const ecosystem::ScaledCatalog& catalog,
                                 const std::string& name,
                                 const ScaledCampaignOptions& options) {
  store::ShardKey key;
  key.code_epoch = store::kCodeEpoch;
  key.payload_format = kShardCensusFormatVersion;
  key.catalog_fingerprint = catalog.provider_fingerprint(name);
  key.shard_seed = ecosystem::shard_seed(options.seed, name);
  // The census path runs no fault or capacity profile today; pinned so the
  // key shape stays identical to the base campaign's.
  key.fault_profile = std::string(faults::profile_name(faults::FaultProfile::kOff));
  key.link_capacities = false;
  key.runner_options_fingerprint = util::fnv1a(util::format(
      "vpna-scaled-options-v1\x1f%u\x1f", options.max_clients));
  return key;
}

ScaledCampaignReport run_scaled_campaign(
    const ecosystem::ScaledCatalog& catalog,
    const ScaledCampaignOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto plane = ecosystem::shared_backbone_plane();
  // Arena accounting {reserved, used} is deterministic (a pure function of
  // each shard's build sequence) but summed across threads, so gather
  // atomically. Cache hits skip the build and contribute nothing.
  std::atomic<std::uint64_t> arena[2] = {0, 0};

  ShardKind<ScaledShardCensus> kind;
  for (const auto& p : catalog.providers) kind.names.push_back(p.spec.name);
  kind.key = [&](std::size_t i) {
    return scaled_shard_key(catalog, kind.names[i], options);
  };
  kind.compute = [&](std::size_t i) {
    return census_shard(catalog, i, options, plane, arena);
  };
  kind.encode = encode_shard_census;
  kind.decode = [&](std::string_view bytes, std::size_t i,
                    ScaledShardCensus* out) {
    return decode_shard_census(bytes, out) && out->provider == kind.names[i];
  };
  // A lost shard keeps a zeroed census record (catalog facts only), so the
  // catalog-order payload still completes.
  kind.placeholder = [&](std::size_t i, ShardEnd) {
    ScaledShardCensus census;
    census.provider = kind.names[i];
    census.modeled_subscribers = catalog.subscribers[i];
    return census;
  };

  ExecOptions exec;
  exec.jobs = options.jobs;
  exec.attempts = options.shard_attempts;
  exec.isolate = options.isolate;
  exec.supervisor.term_grace_s = options.term_grace_s;
  exec.supervisor.worker_argv = options.worker_argv;
  exec.supervisor.interrupt = options.interrupt;
  exec.cache = options.cache;

  auto run = execute_shards(kind, exec);

  ScaledCampaignReport report;
  report.seed = options.seed;
  report.jobs = run.jobs;
  report.catalog_fingerprint = catalog.fingerprint();
  report.shards = std::move(run.results);
  for (std::size_t i = 0; i < report.shards.size(); ++i)
    if (run.ends[i] == ShardEnd::kFailed || run.ends[i] == ShardEnd::kCrashed)
      report.crashed_providers.push_back(kind.names[i]);
  report.cache_records = std::move(run.cache_records);
  report.arena_reserved_bytes = arena[0].load();
  report.arena_used_bytes = arena[1].load();
  report.execution_isolated = options.isolate;
  report.interrupted = run.supervisor.interrupted;
  report.process_spawns = run.supervisor.spawns;
  report.process_crashes = run.supervisor.crashes;

  // Canonical payload serialization (catalog order; telemetry excluded).
  report.payload = "provider,vantage_points,hosts,clients,subscribers,addr_fp\n";
  for (const auto& s : report.shards)
    report.payload += util::format(
        "%s,%u,%u,%u,%u,%016llx\n", s.provider.c_str(), s.vantage_points,
        s.hosts, s.clients, s.modeled_subscribers,
        static_cast<unsigned long long>(s.address_fingerprint));
  report.payload_fingerprint = util::fnv1a(report.payload);

  report.peak_rss_kb = util::peak_rss_kb();
  report.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return report;
}

}  // namespace vpna::core
