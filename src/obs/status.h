// Live campaign status: per-shard heartbeats, progress counters, an ETA
// derived from the completed-shard median wall time, and a watchdog that
// flags shards running far past that median.
//
// A StatusBoard is published to by the campaign engine (shard started /
// finished events, pool counter snapshots) and read by a monitor thread
// that periodically rewrites a --status-file JSON (atomic: write to a
// temporary, then rename) and runs the watchdog scan. Lock discipline is
// deliberately light: one mutex, taken only on the rare shard transitions
// and on snapshot — never on any per-packet or per-exchange path.
//
// Watchdog semantics: once at least `min_completed` shards have finished,
// any *running* shard whose elapsed wall time exceeds `multiple` × the
// median completed-shard wall time is flagged — once per shard, as a
// structured WatchdogAlert record next to the fault plane's Degradations.
// An alert never kills or preempts the shard (the pool cannot preempt, and
// a slow shard is usually a loaded machine, not a hang); it makes the
// stall visible while the run is still in flight.
//
// Everything here is wall-clock telemetry: it varies run to run and is
// quarantined from the deterministic campaign payload exactly like the
// volatile section of the metrics rendering.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace vpna::obs {

// Completed shards required before the watchdog trusts their median wall
// time (both the in-process monitor and the isolated supervisor).
inline constexpr std::size_t kWatchdogMinCompleted = 3;

// Campaign status/watchdog configuration (CampaignOptions::status).
struct StatusOptions {
  // Status-file path; empty = no file written.
  std::string file;
  // Monitor rewrite/scan period in wall milliseconds.
  double interval_ms = 200.0;
  // Watchdog threshold: flag running shards exceeding this multiple of the
  // running median completed-shard wall time. 0 disables the watchdog.
  double watchdog_multiple = 0.0;

  // True when the engine should stand up the board + monitor thread at
  // all; default options keep the whole plane off.
  [[nodiscard]] bool engaged() const noexcept {
    return !file.empty() || watchdog_multiple > 0.0;
  }
};

// Structured watchdog record: shard `shard` had been running `elapsed_s`
// when the running median of completed shards was `median_s`.
struct WatchdogAlert {
  std::string shard;
  int worker = -1;  // pool worker running it (-1 = serial / unknown)
  double elapsed_s = 0.0;
  double median_s = 0.0;

  [[nodiscard]] double ratio() const noexcept {
    return median_s > 0.0 ? elapsed_s / median_s : 0.0;
  }
};

// Pool counter snapshot folded into the status stream (mirrors
// util::WorkerCounters without dragging the pool header in here).
struct WorkerStatus {
  std::uint64_t tasks_run = 0;
  std::uint64_t steals = 0;
  std::uint64_t retries = 0;
  double busy_wall_s = 0.0;
};

// Per-worker-process telemetry for isolated (`--isolate`) campaigns: one
// entry per supervisor slot, pushed by the shard supervisor each status
// tick and carried verbatim into the JSON's "processes" array.
struct ProcessStatus {
  int slot = -1;
  long pid = -1;     // current process id; -1 when the slot is empty
  bool alive = false;
  std::size_t spawns = 0;       // processes this slot has started
  std::size_t shards_done = 0;  // ok frames received across all of them
  std::size_t crashes = 0;      // deaths with a shard in flight
  std::string shard;            // in-flight shard name; empty when idle
};

// Point-in-time view assembled by StatusBoard::snapshot().
struct StatusSnapshot {
  std::size_t total = 0;
  std::size_t completed = 0;  // done + quarantined + failed
  std::size_t done = 0;
  std::size_t quarantined = 0;
  std::size_t failed = 0;
  std::size_t running = 0;
  double percent = 0.0;    // completed / total, in percent
  double elapsed_s = 0.0;  // since begin()
  double median_shard_s = 0.0;  // median of successful shard walls (0 = none)
  // Median-based remaining-work estimate; negative while unknown (no
  // completed shard yet).
  double eta_s = -1.0;
  std::size_t jobs = 0;

  struct RunningShard {
    std::string shard;
    int worker = -1;
    double elapsed_s = 0.0;
  };
  std::vector<RunningShard> in_flight;  // shard-index order
  std::vector<WatchdogAlert> alerts;    // every alert raised so far
  std::vector<WorkerStatus> workers;    // last pool snapshot pushed
  std::vector<ProcessStatus> processes;  // isolate mode: per-slot processes
  // Artifact-cache counters (campaigns with a cache enabled; all zero
  // otherwise). Hits show up live, so a warm run's status stream makes
  // "nothing is being recomputed" visible while in flight.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t cache_corrupt = 0;
};

class StatusBoard {
 public:
  // `now` returns monotonic wall seconds; injectable so tests can drive
  // the watchdog/ETA math deterministically. nullptr = steady_clock.
  explicit StatusBoard(std::function<double()> now = nullptr);

  // Declares the shard list (index-addressed from then on) and the worker
  // count, and starts the run clock. Resets any previous state.
  void begin(const std::vector<std::string>& shards, std::size_t jobs);

  // Heartbeats from the engine. started() is idempotent per attempt — a
  // retried shard restarts its clock. attempt_failed() parks the shard
  // back in pending (its wall never pollutes the ETA median) until the
  // pool re-runs it or the engine records the terminal outcome.
  void shard_started(std::size_t index, int worker);
  void shard_attempt_failed(std::size_t index);

  enum class Outcome : std::uint8_t { kDone, kQuarantined, kFailed };
  void shard_finished(std::size_t index, Outcome outcome);

  // Artifact-cache heartbeat: one call per cache consult (hit, miss, or
  // corrupt-and-recomputed), folded into the status stream.
  enum class CacheEvent : std::uint8_t { kHit, kMiss, kCorrupt };
  void cache_event(CacheEvent event);

  // Latest pool counters for the status stream (monitor thread pushes
  // these each rewrite so the JSON carries per-worker retry data).
  void set_workers(std::vector<WorkerStatus> workers);

  // Latest per-worker-process snapshot (isolate mode; the supervisor
  // pushes one entry per slot each status tick).
  void set_processes(std::vector<ProcessStatus> processes);

  // Records an externally raised watchdog alert (the shard supervisor
  // detects stalls with its own clock — escalation needs it — but the
  // alert still belongs in this board's status stream).
  void add_alert(WatchdogAlert alert);

  // Runs one watchdog pass (no-op until kWatchdogMinCompleted shards have
  // completed); returns only the alerts newly raised by this scan (each
  // shard alerts at most once per attempt).
  std::vector<WatchdogAlert> watchdog_scan(double multiple);

  [[nodiscard]] StatusSnapshot snapshot() const;
  [[nodiscard]] std::vector<WatchdogAlert> alerts() const;

 private:
  enum class State : std::uint8_t { kPending, kRunning, kDone,
                                    kQuarantined, kFailed };
  struct Slot {
    std::string name;
    State state = State::kPending;
    int worker = -1;
    double start_s = 0.0;
    bool alerted = false;  // watchdog: one alert per attempt
  };

  [[nodiscard]] double now() const { return now_(); }
  [[nodiscard]] double median_completed_locked() const;

  std::function<double()> now_;
  mutable std::mutex mu_;
  std::vector<Slot> slots_;
  std::vector<double> completed_walls_;  // successful shards only
  std::vector<WatchdogAlert> alerts_;
  std::vector<WorkerStatus> workers_;
  std::vector<ProcessStatus> processes_;
  std::size_t jobs_ = 0;
  double begin_s_ = 0.0;
  std::size_t cache_hits_ = 0;
  std::size_t cache_misses_ = 0;
  std::size_t cache_corrupt_ = 0;
};

// Status-file JSON (one object; stable key order) for --status-file.
[[nodiscard]] std::string render_status_json(const StatusSnapshot& snapshot);

// Atomically replaces `path` with `content` (write "<path>.tmp", rename).
// Returns false on I/O failure — the monitor treats that as non-fatal.
bool write_file_atomic(const std::string& path, const std::string& content);

// Background health monitor for in-process campaigns: every tick runs the
// watchdog scan, pushes the worker counters `workers` returns onto the
// board, and atomically rewrites the status file. RAII — destruction stops
// the thread and runs one final tick, so the file ends at 100% with the
// complete alert list. Purely observational: it never perturbs results.
class StatusMonitor {
 public:
  StatusMonitor(StatusBoard& board, StatusOptions opts,
                std::function<std::vector<WorkerStatus>()> workers);
  ~StatusMonitor();

  StatusMonitor(const StatusMonitor&) = delete;
  StatusMonitor& operator=(const StatusMonitor&) = delete;

 private:
  void loop();
  void tick();

  StatusBoard& board_;
  StatusOptions opts_;
  std::function<std::vector<WorkerStatus>()> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace vpna::obs
