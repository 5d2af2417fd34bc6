// Health-plane microbench: the observability hooks must be free when off.
//
// Measures obs::Span with nothing bound and the profiler off (a
// thread-local read plus one relaxed atomic load — the cost every
// instrumented seam pays in a plain campaign run), the profiler-only path
// (thread-local frame push/pop plus interned path accounting), StatusBoard
// heartbeat and snapshot cost under contention-free use, and
// bucket-interpolated histogram quantiles. The acceptance bar is the
// nothing-bound span staying in single-digit nanoseconds — well under the
// <2% budget against microsecond-scale phases — and heartbeats staying
// cheap enough that per-shard events never show up in campaign wall time.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/status.h"
#include "obs/trace.h"
#include "util/rng.h"

using namespace vpna;
using Clock = std::chrono::steady_clock;

namespace {

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

constexpr int kScopes = 2000000;
constexpr int kRounds = 5;

// Opaque sink so the loop bodies cannot be hoisted away entirely.
volatile std::uint64_t g_sink = 0;

double bench_baseline() {
  double best = 1e18;
  for (int r = 0; r < kRounds; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kScopes; ++i) g_sink = g_sink + 1;
    best = std::min(best, ms_since(t0));
  }
  return best;
}

double bench_span_unbound() {
  obs::Profiler::disable();
  double best = 1e18;
  for (int r = 0; r < kRounds; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kScopes; ++i) {
      obs::Span span("bench.unbound", "bench");
      g_sink = g_sink + 1;
    }
    best = std::min(best, ms_since(t0));
  }
  return best;
}

double bench_span_profiled() {
  obs::Profiler::enable();
  obs::Profiler::instance().reset();
  double best = 1e18;
  for (int r = 0; r < kRounds; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kScopes; ++i) {
      obs::Span span("bench.profiled", "bench");
      g_sink = g_sink + 1;
    }
    best = std::min(best, ms_since(t0));
  }
  obs::Profiler::disable();
  return best;
}

double bench_span_profiled_nested() {
  obs::Profiler::enable();
  obs::Profiler::instance().reset();
  double best = 1e18;
  for (int r = 0; r < kRounds; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kScopes / 2; ++i) {
      obs::Span outer("bench.outer", "bench");
      obs::Span inner("bench.inner", "bench");
      g_sink = g_sink + 1;
    }
    best = std::min(best, ms_since(t0));
  }
  obs::Profiler::disable();
  return best;
}

constexpr int kHeartbeats = 200000;

double bench_status_heartbeats() {
  std::vector<std::string> shards;
  for (int i = 0; i < 64; ++i) shards.push_back("shard-" + std::to_string(i));
  obs::StatusBoard board;
  double best = 1e18;
  for (int r = 0; r < kRounds; ++r) {
    board.begin(shards, 8);
    const auto t0 = Clock::now();
    for (int i = 0; i < kHeartbeats; ++i) {
      const std::size_t idx = static_cast<std::size_t>(i) % shards.size();
      board.shard_started(idx, i % 8);
      board.shard_finished(idx, obs::StatusBoard::Outcome::kDone);
    }
    best = std::min(best, ms_since(t0));
  }
  return best;
}

constexpr int kSnapshots = 20000;

double bench_status_snapshot_render() {
  std::vector<std::string> shards;
  for (int i = 0; i < 64; ++i) shards.push_back("shard-" + std::to_string(i));
  obs::StatusBoard board;
  board.begin(shards, 8);
  for (int i = 0; i < 48; ++i) {
    board.shard_started(static_cast<std::size_t>(i), i % 8);
    if (i < 40)
      board.shard_finished(static_cast<std::size_t>(i),
                           obs::StatusBoard::Outcome::kDone);
  }
  double best = 1e18;
  for (int r = 0; r < kRounds; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kSnapshots; ++i) {
      const auto json = obs::render_status_json(board.snapshot());
      g_sink = g_sink + json.size();
    }
    best = std::min(best, ms_since(t0));
  }
  return best;
}

constexpr int kQuantiles = 200000;

double bench_histogram_quantile() {
  obs::HistogramData hist;
  util::Rng rng(7);
  for (int i = 0; i < 100000; ++i)
    obs::histogram_observe(hist, rng.uniform(0.0, 400.0),
                           obs::kQueueDelayBucketsMs);
  double best = 1e18;
  for (int r = 0; r < kRounds; ++r) {
    const auto t0 = Clock::now();
    double acc = 0.0;
    for (int i = 0; i < kQuantiles; ++i)
      acc += obs::histogram_quantile(hist, 0.99);
    g_sink = g_sink + static_cast<std::uint64_t>(acc);
    best = std::min(best, ms_since(t0));
  }
  return best;
}

}  // namespace

int main() {
  bench::print_header("Health plane",
                      "span cost (nothing bound / profiler only), status "
                      "heartbeats, "
                      "histogram quantiles");

  const double base_ms = bench_baseline();
  const double off_ms = bench_span_unbound();
  const double on_ms = bench_span_profiled();
  const double nested_ms = bench_span_profiled_nested();
  const double hb_ms = bench_status_heartbeats();
  const double snap_ms = bench_status_snapshot_render();
  const double q_ms = bench_histogram_quantile();

  const double off_ns = (off_ms - base_ms) / kScopes * 1e6;
  const double on_ns = (on_ms - base_ms) / kScopes * 1e6;
  const double nested_ns = (nested_ms - base_ms) / kScopes * 1e6;
  bench::compare("Span nothing bound, ns/span",
                 "<10ns (TLS read + one atomic load)",
                 util::format("%.1f", off_ns));
  bench::compare("Span profiler only, ns/span", "<200ns (push+pop+fold)",
                 util::format("%.1f", on_ns));
  bench::compare("Span profiler only nested, ns/span", "~profiler only flat",
                 util::format("%.1f", nested_ns));
  bench::compare("StatusBoard heartbeat pairs/sec", "millions (mutex only)",
                 util::format("%.0f", kHeartbeats / hb_ms * 1e3));
  bench::compare("status snapshot+render/sec", ">10k (monitor ticks at 5/s)",
                 util::format("%.0f", kSnapshots / snap_ms * 1e3));
  bench::compare("histogram_quantile p99/sec", "millions (12-bucket walk)",
                 util::format("%.0f", kQuantiles / q_ms * 1e3));
  bench::note("the nothing-bound number is the entire cost an instrumented "
              "seam pays in a plain campaign run; the <2% budget on "
              "bench_transact-scale work is ~20ns, so single digits is free");
  return 0;
}
