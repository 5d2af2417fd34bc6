// Campaign metrics: named counters, gauges and fixed-bucket histograms with
// a deterministic text rendering.
//
// A MetricsRegistry is owned by whoever observes a unit of deterministic
// work (one campaign shard, one test) and is merged in canonical order
// afterwards, so the aggregated registry is byte-identical at any worker
// count. Metrics that describe *scheduling* rather than the simulation
// (pool steals, wall clock) are marked volatile; the text rendering pushes
// them below a marker line so the deterministic prefix can be compared
// byte-for-byte between runs (the canonical form).
//
// Instrumentation sites use the free helpers (obs::count, obs::observe,
// obs::set_gauge), which target the registry bound to the current thread by
// ScopedObservation (see trace.h) and are no-ops — no locks, no
// allocations — when nothing is bound.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace vpna::obs {

// Marker separating deterministic metrics from scheduling telemetry in the
// text rendering. Everything above the marker is the canonical form.
inline constexpr std::string_view kVolatileMetricsMarker =
    "# --- scheduling telemetry (varies run to run; excluded from canonical "
    "compare) ---";

// Standard bucket bounds (upper-inclusive; an implicit +inf bucket follows).
inline constexpr double kRttBucketsMs[] = {1,   5,   10,  25,   50,
                                           100, 250, 500, 1000, 2500};
inline constexpr double kHopBuckets[] = {1, 2, 3, 4, 6, 8, 12, 16, 24};
inline constexpr double kSimSecondsBuckets[] = {0.01, 0.05, 0.1, 0.5, 1,
                                                5,    20,   60,  180, 600};
// Finer low end than kRttBucketsMs: queueing delay on an uncongested path
// sits well under a millisecond and the percentile queries need resolution
// there.
inline constexpr double kQueueDelayBucketsMs[] = {
    0.25, 0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000};

struct HistogramData {
  std::vector<double> bounds;          // upper bounds, ascending
  std::vector<std::uint64_t> counts;   // bounds.size() + 1 (last = +inf)
  std::uint64_t total = 0;
  double sum = 0.0;
};

// Standalone observation into a HistogramData owned by a result struct
// (rather than a registry): fixes the buckets on first use, then counts.
void histogram_observe(HistogramData& h, double value,
                       std::span<const double> bounds);

// Bucket-interpolated quantile (q in [0,1], clamped): finds the bucket
// holding the q·total-th observation and interpolates linearly inside it,
// Prometheus histogram_quantile-style. The first bucket's lower edge is
// min(0, bound) — every metric here is non-negative, so effectively 0 —
// and a quantile landing in the +inf bucket reports the last finite bound
// (the best the bucketing can say). Returns 0 for an empty histogram.
// Accurate to within the width of the containing bucket; the randomized
// test pins it against util::stats::quantile on the raw samples.
[[nodiscard]] double histogram_quantile(const HistogramData& h, double q);

class MetricsRegistry {
 public:
  // Counter increment (creates the counter at 0 on first use).
  void add(std::string_view name, std::uint64_t delta = 1);
  void set_gauge(std::string_view name, double value);
  // Histogram observation; `bounds` fixes the buckets on first use and must
  // match on every later call for the same name.
  void observe(std::string_view name, double value,
               std::span<const double> bounds);

  // Marks a metric as scheduling telemetry (see kVolatileMetricsMarker).
  void set_volatile(std::string_view name);

  // Folds `other` in: counters and histogram buckets add, gauges keep the
  // maximum (so a merged gauge reads "worst shard"), volatile marks union.
  void merge(const MetricsRegistry& other);

  // Deterministic dump: one line per metric, sorted by kind then name.
  // Volatile metrics render after the marker; `include_volatile = false`
  // yields the canonical form used for byte-identity comparisons.
  [[nodiscard]] std::string render_text(bool include_volatile = true) const;

  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  // Sum of every counter whose name starts with `prefix` (e.g. "faults."
  // for fault attribution snapshots). Deterministic: map order is fixed.
  [[nodiscard]] std::uint64_t counter_prefix_sum(std::string_view prefix) const;
  [[nodiscard]] std::optional<double> gauge(std::string_view name) const;
  [[nodiscard]] const HistogramData* histogram(std::string_view name) const;
  [[nodiscard]] bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

 private:
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, HistogramData, std::less<>> histograms_;
  std::set<std::string, std::less<>> volatile_;
};

namespace detail {
// The thread-bound registry. Exposed (as a detail) so the no-meter checks
// below inline into the per-packet hot path; use meter()/ScopedObservation.
extern thread_local constinit MetricsRegistry* t_meter;

// Swaps the thread-bound registry, returning the previous one. Used by
// ScopedObservation (trace.h); not part of the instrumentation API.
MetricsRegistry* exchange_meter(MetricsRegistry* next) noexcept;
}  // namespace detail

// The registry bound to this thread by ScopedObservation, or nullptr.
[[nodiscard]] inline MetricsRegistry* meter() noexcept {
  return detail::t_meter;
}

// Free helpers targeting the bound registry; no-ops when none is bound.
inline void count(std::string_view name, std::uint64_t delta = 1) {
  if (auto* m = detail::t_meter) m->add(name, delta);
}
inline void observe(std::string_view name, double value,
                    std::span<const double> bounds) {
  if (auto* m = detail::t_meter) m->observe(name, value, bounds);
}
inline void set_gauge(std::string_view name, double value) {
  if (auto* m = detail::t_meter) m->set_gauge(name, value);
}

}  // namespace vpna::obs
