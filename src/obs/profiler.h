// Wall-clock phase profiler — the real-time counterpart of the sim-time
// trace layer (trace.h).
//
// While the profiler is enabled, every obs::Span (trace.h) also opens a
// frame here: shard build, routing-plane freeze, each suite and each layer
// seam under it, serialization. Frames nest on a thread-local stack and
// close by identity; closing one attributes its wall time to the phase both
// inclusively (total) and exclusively (self: the time it was the innermost
// open frame), and to its full stack path for a flame-style summary. Every
// thread accumulates into its own tables; Profiler::report() folds them
// into one deterministic-ordered hot-phase report (self-time descending,
// name ascending on ties).
//
// Cost contract: when the profiler is disabled (the default), a span pays
// one relaxed atomic load and a branch for it — no clock read, no
// allocation, no lock — so instrumentation sites stay in place permanently
// (bench_obs pins both paths). When enabled, a frame costs two
// steady_clock reads and one short uncontended lock at close, and
// allocates nothing once its stack path has been seen.
//
// Determinism quarantine: wall times legitimately vary run to run, so
// nothing the profiler produces ever lands in a campaign payload — the
// report is a separate artifact (full_campaign --profile), exactly like
// the volatile-marker section of the metrics rendering.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace vpna::obs {

// Accumulated wall time of one phase (or one stack path).
struct PhaseStats {
  std::uint64_t calls = 0;
  // Inclusive of enclosed phases. A phase row counts only its outermost
  // frames here, so a frame nested in a same-name one is not counted twice.
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;   // exclusive

  void fold(const PhaseStats& o) noexcept {
    calls += o.calls;
    total_ns += o.total_ns;
    self_ns += o.self_ns;
  }
};

// The folded cross-thread profile.
struct ProfileReport {
  struct Phase {
    std::string name;
    PhaseStats stats;
  };
  // One row per distinct frame-stack path ("shard.run;test.pings"),
  // self-time ordered — a textual flame graph.
  struct PathRow {
    std::string path;
    PhaseStats stats;
  };
  std::vector<Phase> phases;  // self-time desc, name asc on ties
  std::vector<PathRow> flame; // top-N paths, same ordering
  std::size_t threads = 0;    // threads that recorded at least one frame
};

namespace detail {
// Thread-local frame push/pop behind obs::Span, not part of the
// instrumentation API. push_frame returns a nonzero token; pop_frame closes
// that frame wherever it sits on this thread's stack (unknown tokens: no-op).
std::uint32_t push_frame(std::string_view name);
void pop_frame(std::uint32_t token) noexcept;
extern std::atomic<bool> g_profiler_enabled;
}  // namespace detail

// Process-wide profiler registry. Threads register lazily on their first
// enabled frame; their tables survive thread exit so a report can be taken
// after a TaskPool has been torn down.
class Profiler {
 public:
  static Profiler& instance();

  // Enabling mid-run is safe: spans opened while disabled open no frame
  // for their whole lifetime (and vice versa), so frames always balance.
  static void enable() noexcept {
    detail::g_profiler_enabled.store(true, std::memory_order_relaxed);
  }
  static void disable() noexcept {
    detail::g_profiler_enabled.store(false, std::memory_order_relaxed);
  }
  [[nodiscard]] static bool enabled() noexcept {
    return detail::g_profiler_enabled.load(std::memory_order_relaxed);
  }

  // Clears every thread's accumulated tables (open frames keep running and
  // will accumulate on close). For benches and tests.
  void reset();

  // Folds every thread's tables. `flame_top_n` bounds the path summary;
  // the per-phase table is always complete.
  [[nodiscard]] ProfileReport report(std::size_t flame_top_n = 12) const;

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

 private:
  Profiler() = default;
};

// Text rendering of a report ("phase <name> calls=N total_ms=… self_ms=…"
// plus the flame section). Telemetry by nature: never byte-compared.
[[nodiscard]] std::string render_profile_text(const ProfileReport& report);

}  // namespace vpna::obs
