#include "obs/metrics.h"

#include <algorithm>

#include "util/strings.h"

namespace vpna::obs {

namespace detail {
thread_local constinit MetricsRegistry* t_meter = nullptr;
}  // namespace detail

namespace {

// Renders a double without trailing noise ("3", "0.25", "12.5").
std::string num(double v) {
  std::string s = util::format("%.6g", v);
  return s;
}

}  // namespace

void MetricsRegistry::add(std::string_view name, std::uint64_t delta) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) {
    it->second += delta;
    return;
  }
  counters_.emplace(std::string(name), delta);
}

void MetricsRegistry::set_gauge(std::string_view name, double value) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) {
    it->second = value;
    return;
  }
  gauges_.emplace(std::string(name), value);
}

void histogram_observe(HistogramData& h, double value,
                       std::span<const double> bounds) {
  if (h.counts.empty()) {
    h.bounds.assign(bounds.begin(), bounds.end());
    h.counts.assign(bounds.size() + 1, 0);
  }
  std::size_t bucket = h.bounds.size();  // +inf by default
  for (std::size_t i = 0; i < h.bounds.size(); ++i) {
    if (value <= h.bounds[i]) {
      bucket = i;
      break;
    }
  }
  ++h.counts[bucket];
  ++h.total;
  h.sum += value;
}

double histogram_quantile(const HistogramData& h, double q) {
  if (h.total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // The (1-based) rank of the target observation; q=0 still means "the
  // first observation", matching the sample-quantile convention of the
  // stats toolkit closely enough for bucket-width accuracy.
  const double rank = std::max(1.0, q * static_cast<double>(h.total));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    const std::uint64_t in_bucket = h.counts[i];
    if (in_bucket == 0) continue;
    const double cum_before = static_cast<double>(cumulative);
    cumulative += in_bucket;
    if (static_cast<double>(cumulative) < rank) continue;
    if (i >= h.bounds.size())  // +inf bucket: the last finite bound is all
      return h.bounds.empty() ? 0.0 : h.bounds.back();
    const double upper = h.bounds[i];
    const double lower = i == 0 ? std::min(0.0, upper) : h.bounds[i - 1];
    const double frac =
        (rank - cum_before) / static_cast<double>(in_bucket);
    return lower + (upper - lower) * frac;
  }
  return h.bounds.empty() ? 0.0 : h.bounds.back();
}

void MetricsRegistry::observe(std::string_view name, double value,
                              std::span<const double> bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(std::string(name), HistogramData{}).first;
  histogram_observe(it->second, value, bounds);
}

void MetricsRegistry::set_volatile(std::string_view name) {
  volatile_.emplace(std::string(name));
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, value] : other.counters_) {
    const auto it = counters_.find(name);
    if (it != counters_.end())
      it->second += value;
    else
      counters_.emplace(name, value);
  }
  for (const auto& [name, value] : other.gauges_) {
    const auto it = gauges_.find(name);
    if (it != gauges_.end())
      it->second = std::max(it->second, value);
    else
      gauges_.emplace(name, value);
  }
  for (const auto& [name, h] : other.histograms_) {
    const auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      histograms_.emplace(name, h);
      continue;
    }
    HistogramData& mine = it->second;
    if (mine.bounds != h.bounds) continue;  // mismatched buckets: skip
    for (std::size_t i = 0; i < mine.counts.size(); ++i)
      mine.counts[i] += h.counts[i];
    mine.total += h.total;
    mine.sum += h.sum;
  }
  for (const auto& name : other.volatile_) volatile_.insert(name);
}

std::string MetricsRegistry::render_text(bool include_volatile) const {
  std::string out;
  const auto render_section = [&](bool want_volatile) {
    for (const auto& [name, value] : counters_) {
      if (volatile_.contains(name) != want_volatile) continue;
      out += util::format("counter %s %llu\n", name.c_str(),
                          static_cast<unsigned long long>(value));
    }
    for (const auto& [name, value] : gauges_) {
      if (volatile_.contains(name) != want_volatile) continue;
      out += util::format("gauge %s %s\n", name.c_str(), num(value).c_str());
    }
    for (const auto& [name, h] : histograms_) {
      if (volatile_.contains(name) != want_volatile) continue;
      out += util::format("histogram %s count=%llu sum=%s", name.c_str(),
                          static_cast<unsigned long long>(h.total),
                          num(h.sum).c_str());
      // Bucket-interpolated percentile summary (deterministic: a pure
      // function of the bucket counts, so it merges/compares like them).
      if (h.total > 0) {
        out += util::format(" p50=%s p90=%s p99=%s",
                            num(histogram_quantile(h, 0.50)).c_str(),
                            num(histogram_quantile(h, 0.90)).c_str(),
                            num(histogram_quantile(h, 0.99)).c_str());
      }
      out += "\n";
      for (std::size_t i = 0; i < h.counts.size(); ++i) {
        const std::string le =
            i < h.bounds.size() ? num(h.bounds[i]) : std::string("inf");
        out += util::format("  le_%s %llu\n", le.c_str(),
                            static_cast<unsigned long long>(h.counts[i]));
      }
    }
  };

  out += "# metrics (deterministic; canonical compare surface)\n";
  render_section(false);
  if (!include_volatile) return out;
  const bool any_volatile = !volatile_.empty();
  if (any_volatile) {
    out += std::string(kVolatileMetricsMarker) + "\n";
    render_section(true);
  }
  return out;
}

std::uint64_t MetricsRegistry::counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::uint64_t MetricsRegistry::counter_prefix_sum(
    std::string_view prefix) const {
  std::uint64_t sum = 0;
  for (auto it = counters_.lower_bound(prefix); it != counters_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    sum += it->second;
  }
  return sum;
}

std::optional<double> MetricsRegistry::gauge(std::string_view name) const {
  const auto it = gauges_.find(name);
  if (it == gauges_.end()) return std::nullopt;
  return it->second;
}

const HistogramData* MetricsRegistry::histogram(std::string_view name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

namespace detail {
MetricsRegistry* exchange_meter(MetricsRegistry* next) noexcept {
  MetricsRegistry* prev = t_meter;
  t_meter = next;
  return prev;
}
}  // namespace detail

}  // namespace vpna::obs
