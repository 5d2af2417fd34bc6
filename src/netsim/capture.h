// Packet capture: a per-interface ring of timestamped, direction-tagged
// packet records, standing in for the libpcap captures the paper's test
// suite records on the hardware interface. The leakage tests scan these
// buffers for traffic that should have traversed the tunnel; they read
// headers only, so a record keeps no payload bytes.
#pragma once

#include <string>
#include <vector>

#include "netsim/packet.h"
#include "util/clock.h"

namespace vpna::netsim {

enum class Direction : std::uint8_t { kOut, kIn };

// The header fields of a captured packet. The payload bytes are not kept.
struct PacketHeader {
  IpAddr src;
  IpAddr dst;
  Proto proto = Proto::kUdp;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  int ttl = 64;
};

// One captured packet, as tcpdump with a short snaplen records it: the
// header, the payload's size and whether the payload is a tunnel frame.
struct CaptureRecord {
  util::SimTime time;
  Direction direction = Direction::kOut;
  std::string interface_name;
  PacketHeader packet;
  std::size_t payload_size = 0;
  bool encapsulated = false;  // is_tunnel_frame(payload)
};

// Append-only capture buffer. One per host; records carry the interface
// name so tests can filter to the hardware (non-VPN) interface.
//
// Capture can be disabled per host (`set_enabled(false)`): the measurement
// client records everything, while busy infrastructure hosts (web servers,
// resolvers, vantage points) keep capture off so a full campaign stays
// memory-bounded — exactly like only running tcpdump on the test machine.
class CaptureBuffer {
 public:
  // `interface_name` is only materialized into a std::string when the
  // buffer is enabled, so disabled hosts pay no allocation per packet (and
  // the disabled check inlines into the caller).
  void record(util::SimTime time, Direction dir,
              std::string_view interface_name, const Packet& packet) {
    if (!enabled_) return;
    record_impl(time, dir, interface_name, packet);
  }

  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  [[nodiscard]] const std::vector<CaptureRecord>& records() const noexcept {
    return records_;
  }

  void clear() noexcept { records_.clear(); }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }

  // tcpdump-style text rendering of (up to max_lines of) the buffer:
  //   "12.345s eth0  OUT udp 71.80.0.10:49152 -> 8.8.8.8:53 len=20"
  [[nodiscard]] std::string dump(std::size_t max_lines = 200) const;

 private:
  void record_impl(util::SimTime time, Direction dir,
                   std::string_view interface_name, const Packet& packet);

  bool enabled_ = true;
  std::vector<CaptureRecord> records_;
};

}  // namespace vpna::netsim
