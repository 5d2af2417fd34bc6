#include "faults/injector.h"

#include <algorithm>

#include "obs/trace.h"

namespace vpna::faults {

namespace {

// FNV-1a over the fields that identify a logical flow. Source port is
// excluded on purpose — see the header comment.
std::uint64_t flow_id(const netsim::Packet& p) noexcept {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  for (const auto byte : p.src.bytes()) mix(byte);
  for (const auto byte : p.dst.bytes()) mix(byte);
  mix(static_cast<std::uint8_t>(p.proto));
  mix(static_cast<std::uint8_t>(p.dst_port & 0xff));
  mix(static_cast<std::uint8_t>(p.dst_port >> 8));
  return h;
}

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

void Injector::record(std::string_view kind, const netsim::Packet& packet) {
  ++injected_;
  obs::count("faults.injected");
  obs::count(kind);
  if (obs::tracing()) {
    obs::Instant ev("fault.inject", "faults");
    ev.arg("kind", kind);
    ev.arg("dst", packet.dst.str());
    ev.arg("proto", netsim::proto_name(packet.proto));
  }
}

bool Injector::roll(const netsim::Packet& packet, double probability) {
  if (probability <= 0.0) return false;
  if (probability >= 1.0) return true;
  const std::uint64_t id = flow_id(packet);
  const std::uint64_t n = roll_counts_[id]++;
  // Counter-based PRNG: mix (seed, flow id, roll index) through SplitMix64.
  const std::uint64_t x =
      splitmix64(plan_.seed ^ splitmix64(id + n * 0x9e3779b97f4a7c15ull));
  return static_cast<double>(x >> 11) * 0x1.0p-53 < probability;
}

netsim::FaultVerdict Injector::on_deliver(const netsim::Packet& packet,
                                          const netsim::RouterId* path,
                                          std::size_t path_len,
                                          double now_ms) {
  netsim::FaultVerdict verdict;
  if (plan_.empty()) return verdict;

  // Destination outage (VPN gateway flap, DNS server dark).
  for (const auto& outage : plan_.addr_outages) {
    if (outage.addr == packet.dst && outage.window.active_at(now_ms)) {
      record("faults.addr_outage", packet);
      verdict.drop = true;
      return verdict;
    }
  }

  // Router down-intervals along the resolved path.
  for (const auto& outage : plan_.router_outages) {
    if (!outage.window.active_at(now_ms)) continue;
    for (std::size_t i = 0; i < path_len; ++i) {
      if (path[i] == outage.router) {
        record("faults.router_down", packet);
        verdict.drop = true;
        return verdict;
      }
    }
  }

  // Per-link faults on consecutive path hops.
  for (const auto& fault : plan_.link_faults) {
    if (!fault.window.active_at(now_ms)) continue;
    for (std::size_t i = 0; i + 1 < path_len; ++i) {
      const auto lo = std::min(path[i], path[i + 1]);
      const auto hi = std::max(path[i], path[i + 1]);
      if (lo != fault.a || hi != fault.b) continue;
      if (roll(packet, fault.drop_probability)) {
        record("faults.link_drop", packet);
        verdict.drop = true;
        return verdict;
      }
      if (fault.extra_latency_ms > 0.0) {
        record("faults.link_latency", packet);
        verdict.extra_latency_ms += fault.extra_latency_ms;
      }
      break;  // a path crosses a given link at most once
    }
  }

  // Global latency-spike weather.
  if (plan_.latency_spike_ms > 0.0 && plan_.latency_spike.active_at(now_ms)) {
    record("faults.latency_spike", packet);
    verdict.extra_latency_ms += plan_.latency_spike_ms;
  }

  // Background per-packet loss.
  if (roll(packet, plan_.packet_drop_probability)) {
    record("faults.packet_drop", packet);
    verdict.drop = true;
    return verdict;
  }
  return verdict;
}

}  // namespace vpna::faults
