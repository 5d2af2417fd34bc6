// Unit tests for the obs subsystem: recorder semantics (nesting, sim
// timestamps, thread binding), metrics registry (merge, volatile rendering)
// and the exporters' canonical output.
#include <gtest/gtest.h>

#include <array>
#include <thread>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/clock.h"
#include "util/rng.h"
#include "util/stats.h"

namespace vpna::obs {
namespace {

TraceConfig enabled_config() {
  TraceConfig config;
  config.enabled = true;
  return config;
}

TEST(TraceRecorder, SpansNestWithParentAndDepth) {
  TraceRecorder rec(enabled_config());
  util::SimClock clock;
  rec.bind_clock(&clock);

  ScopedObservation scope(&rec, nullptr);
  {
    Span outer("outer", "test");
    clock.advance_millis(2.0);
    {
      Span inner("inner", "test");
      clock.advance_millis(3.0);
    }
    Instant point("point", "test");
  }

  ASSERT_EQ(rec.events().size(), 3u);
  const auto& outer = rec.events()[0];
  const auto& inner = rec.events()[1];
  const auto& point = rec.events()[2];

  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(outer.sim_ts_us, 0);
  EXPECT_EQ(outer.sim_dur_us, 5000);

  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_EQ(inner.sim_ts_us, 2000);
  EXPECT_EQ(inner.sim_dur_us, 3000);

  EXPECT_EQ(point.phase, 'i');
  EXPECT_EQ(point.parent, outer.id);
  EXPECT_EQ(point.sim_ts_us, 5000);
  EXPECT_EQ(point.sim_dur_us, 0);
}

TEST(TraceRecorder, SpanArgsLand) {
  TraceRecorder rec(enabled_config());
  ScopedObservation scope(&rec, nullptr);
  {
    Span span("s", "test");
    span.arg("str", "value");
    span.arg("int", static_cast<std::int64_t>(42));
    span.arg("dbl", 1.5);
  }
  ASSERT_EQ(rec.events().size(), 1u);
  const auto& args = rec.events()[0].args;
  ASSERT_EQ(args.size(), 3u);
  EXPECT_EQ(args[0].key, "str");
  EXPECT_EQ(args[0].value, "value");
  EXPECT_EQ(args[1].value, "42");
  EXPECT_EQ(args[2].key, "dbl");
}

TEST(TraceRecorder, UnboundThreadMakesSpansNoOps) {
  // No ScopedObservation: Span/Instant must be inert (and cheap).
  EXPECT_FALSE(tracing());
  Span span("orphan", "test");
  EXPECT_FALSE(span);
  Instant point("orphan", "test");
  EXPECT_FALSE(point);
  count("orphan.counter");  // metrics helper is a no-op too
}

TEST(TraceRecorder, BindingIsPerThread) {
  TraceRecorder rec(enabled_config());
  ScopedObservation scope(&rec, nullptr);
  ASSERT_TRUE(tracing());
  bool other_thread_traced = true;
  std::thread other([&] { other_thread_traced = tracing(); });
  other.join();
  EXPECT_FALSE(other_thread_traced);
}

TEST(TraceRecorder, ScopedObservationRestoresPreviousBinding) {
  TraceRecorder a(enabled_config());
  TraceRecorder b(enabled_config());
  ScopedObservation outer(&a, nullptr);
  { Instant before("a.before", "test"); }
  {
    ScopedObservation inner(&b, nullptr);
    Instant inside("b.inside", "test");
  }
  { Instant after("a.after", "test"); }
  ASSERT_EQ(a.events().size(), 2u);
  EXPECT_EQ(a.events()[0].name, "a.before");
  EXPECT_EQ(a.events()[1].name, "a.after");
  ASSERT_EQ(b.events().size(), 1u);
  EXPECT_EQ(b.events()[0].name, "b.inside");
}

TEST(MetricsRegistry, CountersGaugesHistograms) {
  MetricsRegistry reg;
  reg.add("requests");
  reg.add("requests", 2);
  reg.set_gauge("load", 0.5);
  reg.observe("rtt_ms", 3.0, kRttBucketsMs);
  reg.observe("rtt_ms", 80.0, kRttBucketsMs);

  EXPECT_EQ(reg.counter("requests"), 3u);
  EXPECT_EQ(reg.gauge("load"), 0.5);
  const auto* hist = reg.histogram("rtt_ms");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->total, 2u);
  EXPECT_DOUBLE_EQ(hist->sum, 83.0);
  EXPECT_EQ(hist->counts[1], 1u);  // 3.0 in (1, 5]
}

TEST(MetricsRegistry, MergeAddsCountersAndKeepsMaxGauge) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.add("c", 2);
  b.add("c", 3);
  a.set_gauge("g", 1.0);
  b.set_gauge("g", 4.0);
  a.observe("h", 1.0, kHopBuckets);
  b.observe("h", 2.0, kHopBuckets);

  a.merge(b);
  EXPECT_EQ(a.counter("c"), 5u);
  EXPECT_EQ(a.gauge("g"), 4.0);
  EXPECT_EQ(a.histogram("h")->total, 2u);
}

TEST(MetricsRegistry, MergeGaugePolicyIsMaxNotLastWriter) {
  // A folded gauge reads "worst shard": merging a smaller value must not
  // lower it, regardless of merge order, and unseen gauges are adopted.
  MetricsRegistry a;
  MetricsRegistry b;
  a.set_gauge("g", 5.0);
  b.set_gauge("g", 1.0);
  b.set_gauge("only_b", 2.0);
  a.merge(b);
  EXPECT_EQ(a.gauge("g"), 5.0);
  EXPECT_EQ(a.gauge("only_b"), 2.0);

  // Within one registry, set_gauge itself is last-writer.
  a.set_gauge("g", 0.25);
  EXPECT_EQ(a.gauge("g"), 0.25);
}

TEST(MetricsRegistry, MergePropagatesVolatileSetsAcrossShardFolds) {
  // Shard folds chain (campaign ← shard ← pool telemetry); a metric marked
  // volatile anywhere must stay below the marker in the final rendering.
  MetricsRegistry shard1;
  MetricsRegistry shard2;
  shard1.add("net.ok", 1);
  shard2.add("pool.steals", 4);
  shard2.set_volatile("pool.steals");

  MetricsRegistry campaign;
  campaign.merge(shard1);
  campaign.merge(shard2);

  const auto canonical = campaign.render_text(/*include_volatile=*/false);
  EXPECT_NE(canonical.find("net.ok"), std::string::npos);
  EXPECT_EQ(canonical.find("pool.steals"), std::string::npos);
  const auto full = campaign.render_text(/*include_volatile=*/true);
  EXPECT_NE(full.find("pool.steals"), std::string::npos);

  // A second-level fold keeps the mark.
  MetricsRegistry fleet;
  fleet.merge(campaign);
  EXPECT_EQ(fleet.render_text(false).find("pool.steals"), std::string::npos);
}

TEST(HistogramQuantile, EmptyAndEdgeCases) {
  HistogramData h;
  EXPECT_EQ(histogram_quantile(h, 0.5), 0.0);

  histogram_observe(h, 3.0, kRttBucketsMs);  // lands in (1, 5]
  EXPECT_GT(histogram_quantile(h, 0.5), 1.0);
  EXPECT_LE(histogram_quantile(h, 0.5), 5.0);

  // Beyond the last bound, the +inf bucket reports the last finite bound —
  // the best the bucketing can say.
  HistogramData overflow;
  histogram_observe(overflow, 1e9, kRttBucketsMs);
  const double last = kRttBucketsMs[std::size(kRttBucketsMs) - 1];
  EXPECT_EQ(histogram_quantile(overflow, 0.99), last);
}

TEST(HistogramQuantile, MatchesStatsQuantileWithinBucketWidth) {
  // Randomized pin against the exact sample quantile: the bucket-
  // interpolated estimate must land within the width of the bucket that
  // contains the exact answer.
  util::Rng rng(20260808);
  for (int trial = 0; trial < 20; ++trial) {
    HistogramData h;
    std::vector<double> samples;
    const int n = 50 + static_cast<int>(rng.uniform() * 450);
    for (int i = 0; i < n; ++i) {
      // Mixed regimes so every trial populates low and high buckets, all
      // within the finite bucket range of kQueueDelayBucketsMs (≤1000).
      const double v = rng.uniform() < 0.7
                           ? rng.uniform() * 10.0
                           : rng.uniform() * 900.0;
      samples.push_back(v);
      histogram_observe(h, v, kQueueDelayBucketsMs);
    }
    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
      const double exact = util::quantile(samples, q);
      const double est = histogram_quantile(h, q);
      // Width of the bucket holding the exact quantile.
      double lo = 0.0, hi = kQueueDelayBucketsMs[0];
      for (std::size_t b = 0; b < std::size(kQueueDelayBucketsMs); ++b) {
        hi = kQueueDelayBucketsMs[b];
        if (exact <= hi) break;
        lo = hi;
      }
      EXPECT_NEAR(est, exact, (hi - lo) + 1e-9)
          << "trial=" << trial << " q=" << q << " n=" << n;
    }
  }
}

TEST(MetricsRegistry, RenderTextHistogramLinesCarryPercentiles) {
  MetricsRegistry reg;
  for (int i = 1; i <= 100; ++i)
    reg.observe("rtt_ms", static_cast<double>(i), kRttBucketsMs);
  const auto text = reg.render_text();
  // The histogram header line gains p50/p90/p99 from the quantile helper.
  const auto line_start = text.find("histogram rtt_ms");
  ASSERT_NE(line_start, std::string::npos);
  const auto line = text.substr(line_start, text.find('\n', line_start));
  EXPECT_NE(line.find(" p50="), std::string::npos);
  EXPECT_NE(line.find(" p90="), std::string::npos);
  EXPECT_NE(line.find(" p99="), std::string::npos);

  // An empty histogram renders no percentile fields.
  MetricsRegistry empty;
  HistogramData h;
  h.bounds.assign(kRttBucketsMs, kRttBucketsMs + std::size(kRttBucketsMs));
  EXPECT_EQ(histogram_quantile(h, 0.5), 0.0);
}

TEST(MetricsRegistry, VolatileMetricsRenderBelowTheMarker) {
  MetricsRegistry reg;
  reg.add("sim.counter", 7);
  reg.add("pool.steals", 3);
  reg.set_volatile("pool.steals");

  const auto full = reg.render_text(true);
  const auto canonical = reg.render_text(false);

  EXPECT_NE(full.find(kVolatileMetricsMarker), std::string::npos);
  EXPECT_NE(full.find("pool.steals"), std::string::npos);
  EXPECT_EQ(canonical.find(kVolatileMetricsMarker), std::string::npos);
  EXPECT_EQ(canonical.find("pool.steals"), std::string::npos);
  EXPECT_NE(canonical.find("sim.counter"), std::string::npos);
  // The canonical form is a prefix of the full form.
  EXPECT_EQ(full.substr(0, canonical.size()), canonical);
}

TEST(Export, ChromeTraceShapeAndCanonicalOrder) {
  util::SimClock clock;
  std::vector<ShardTrace> shards(2);

  // Shard order is Alpha then Beta, but Beta's span begins earlier in sim
  // time, so the canonical export must list Beta's event first.
  shards[0].shard = "Alpha";
  {
    TraceRecorder rec(enabled_config());
    rec.bind_clock(&clock);
    ScopedObservation scope(&rec, nullptr);
    clock.advance_millis(5.0);
    { Span span("late", "test"); clock.advance_millis(1.0); }
    shards[0].events = rec.take_events();
  }
  shards[1].shard = "Beta";
  {
    util::SimClock fresh;
    TraceRecorder rec(enabled_config());
    rec.bind_clock(&fresh);
    ScopedObservation scope(&rec, nullptr);
    { Span span("early", "test"); fresh.advance_millis(1.0); }
    shards[1].events = rec.take_events();
  }

  const auto json = chrome_trace_json(shards);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // metadata
  EXPECT_NE(json.find("\"Alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"Beta\""), std::string::npos);
  // Beta's event (ts 0) sorts before Alpha's (ts 5000).
  EXPECT_LT(json.find("\"early\""), json.find("\"late\""));
}

TEST(Export, MergedMetricsFoldsAllShards) {
  std::vector<ShardTrace> shards(2);
  shards[0].shard = "A";
  shards[0].metrics.add("net.transact.ok", 2);
  shards[1].shard = "B";
  shards[1].metrics.add("net.transact.ok", 3);
  EXPECT_EQ(merged_metrics(shards).counter("net.transact.ok"), 5u);
}

}  // namespace
}  // namespace vpna::obs
