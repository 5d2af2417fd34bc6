// Outside-in layer timing for the campaign benchmark's traced run.
//
// The mirror re-drives one provider shard the way core::run_provider_shard
// and TestRunner::run_vantage_point do, but through the public functions of
// each layer (ecosystem shard build, ground truth, vpn connect, every core
// suite, disconnect), timing each call from the benchmark's own files. No
// span is added to the library. Because the mirror copies the runner's
// sequencing, its reports are checked byte for byte against the library's
// own (mirror_drift); a mismatch means the copy has drifted and the traced
// numbers describe some other program.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/parallel_campaign.h"
#include "ecosystem/scale.h"
#include "obs/metrics.h"

namespace vpna::bench {

// One timed call into a layer. Spans of one shard share `shard`; `parent`
// indexes the enclosing span in the same log (-1 for a root).
struct SpanRecord {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  int shard = -1;
};

// In-memory span log; written out once, when the benchmark ends.
class SpanLog {
 public:
  int open(std::string name, int parent, int shard);
  void close(int index);
  [[nodiscard]] double duration_ms(int index) const;
  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }
  [[nodiscard]] std::string to_json() const;

 private:
  [[nodiscard]] double now_us() const;

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<SpanRecord> spans_;
};

// Closes its span on destruction; `ms()` closes early and returns the
// duration.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, int parent, int shard)
      : log_(log), index_(log.open(std::move(name), parent, shard)) {}
  ~ScopedSpan() { end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int index() const { return index_; }
  double ms() {
    end();
    return log_.duration_ms(index_);
  }

 private:
  void end() {
    if (open_) log_.close(index_);
    open_ = false;
  }

  SpanLog& log_;
  int index_;
  bool open_ = true;
};

// The suites TestRunner::run_vantage_point calls, in its call order (the
// speed test is off in every benchmark workload).
inline constexpr std::array<std::string_view, 11> kSuites = {
    "dns_manipulation", "dom_collection", "tls",        "proxy_detection",
    "recursive_origin", "pings",          "geo_api",    "dns_leak",
    "ipv6_leak",        "tunnel_failure", "pcap_scan"};

// Layer measurements of one mirrored provider shard.
struct ShardLayers {
  double shard_ms = 0.0;  // build + suite + teardown
  double build_ms = 0.0;  // ecosystem::build_provider_shard
  double ground_truth_ms = 0.0;
  std::vector<double> connect_ms;  // one per VpnClient::connect call
  std::array<double, kSuites.size()> suite_ms{};
  std::array<std::uint64_t, kSuites.size()> suite_exchanges{};
  std::uint64_t hosts = 0;
  std::uint64_t arena_used_bytes = 0;
  std::uint64_t capture_packets = 0;  // client capture size after each VP
  obs::MetricsRegistry metrics;       // bound for the shard's whole run
};

// Mirrors core::run_provider_shard(name, seed, options, plane).
[[nodiscard]] core::ProviderReport mirror_provider_shard(
    const std::string& name, std::uint64_t seed,
    const core::RunnerOptions& options,
    std::shared_ptr<const netsim::RoutingPlane> plane, SpanLog& log,
    int shard_id, ShardLayers* out);

// Providers whose mirrored report does not encode byte for byte like the
// library's (encode_provider_report). Empty when the mirror is faithful;
// a length mismatch reports every provider.
[[nodiscard]] std::vector<std::string> mirror_drift(
    const std::vector<core::ProviderReport>& mirror,
    const std::vector<core::ProviderReport>& reference);

// Layer measurements of one mirrored census shard.
struct CensusLayers {
  double shard_ms = 0.0;
  double build_ms = 0.0;  // ecosystem::build_scaled_shard
  std::uint64_t hosts = 0;
  std::uint64_t arena_used_bytes = 0;
};

// Mirrors core::run_scaled_census_shard(catalog, index, options, plane).
[[nodiscard]] core::ScaledShardCensus mirror_census_shard(
    const ecosystem::ScaledCatalog& catalog, std::size_t index,
    const core::ScaledCampaignOptions& options,
    std::shared_ptr<const netsim::RoutingPlane> plane, SpanLog& log,
    int shard_id, CensusLayers* out);

// Census twin of mirror_drift (encode_shard_census).
[[nodiscard]] std::vector<std::string> census_drift(
    const std::vector<core::ScaledShardCensus>& mirror,
    const std::vector<core::ScaledShardCensus>& reference);

}  // namespace vpna::bench
