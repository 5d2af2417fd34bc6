// Packet capture: a per-interface ring of timestamped, direction-tagged
// packet records, standing in for the libpcap captures the paper's test
// suite records on the hardware interface. The leakage tests scan these
// buffers for traffic that should have traversed the tunnel; they read
// headers only, so a record keeps no payload bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
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
// header, the payload's size and whether the payload is a tunnel frame. The
// interface is a small id its CaptureBuffer interned, so a record holds no
// heap bytes and recording copies no string.
struct CaptureRecord {
  util::SimTime time;
  Direction direction = Direction::kOut;
  std::uint8_t interface_id = 0;  // CaptureBuffer::interface_name(...)
  bool encapsulated = false;      // is_tunnel_frame(payload)
  PacketHeader packet;
  std::size_t payload_size = 0;
};
static_assert(std::is_trivially_copyable_v<CaptureRecord>);
static_assert(sizeof(CaptureRecord) <= 72);

// Append-only capture buffer. One per host; records carry an interface id
// so tests can filter to the hardware (non-VPN) interface.
//
// Capture can be disabled per host (`set_enabled(false)`): the measurement
// client records everything, while busy infrastructure hosts (web servers,
// resolvers, vantage points) keep capture off so a full campaign stays
// memory-bounded — exactly like only running tcpdump on the test machine.
class CaptureBuffer {
 public:
  using InterfaceId = std::uint8_t;

  // The id of interface `name` in this buffer, interned on first use. Ids
  // outlive the interface they name and survive clear(), so a record taken
  // on an interface that is gone still names it. Throws std::length_error
  // past 256 distinct names.
  InterfaceId intern(std::string_view name);
  // The id of `name`, or nullopt when it was never interned (so no record
  // names it).
  [[nodiscard]] std::optional<InterfaceId> find_interface(
      std::string_view name) const noexcept;
  [[nodiscard]] const std::string& interface_name(InterfaceId id) const {
    return interface_names_.at(id);
  }

  // `interface_id` must come from intern(). The disabled check inlines into
  // the caller, so a disabled host pays one branch per packet.
  void record(util::SimTime time, Direction dir, InterfaceId interface_id,
              const Packet& packet) {
    if (!enabled_) return;
    records_.push_back(CaptureRecord{
        time, dir, interface_id, is_tunnel_frame(packet.payload),
        PacketHeader{packet.src, packet.dst, packet.proto, packet.src_port,
                     packet.dst_port, packet.ttl},
        packet.payload.size()});
  }

  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  [[nodiscard]] const std::vector<CaptureRecord>& records() const noexcept {
    return records_;
  }

  // Drops the records; interned names stay.
  void clear() noexcept { records_.clear(); }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }

  // tcpdump-style text rendering of (up to max_lines of) the buffer:
  //   "12.345s eth0  OUT udp 71.80.0.10:49152 -> 8.8.8.8:53 len=20"
  [[nodiscard]] std::string dump(std::size_t max_lines = 200) const;

 private:
  bool enabled_ = true;
  std::vector<CaptureRecord> records_;
  std::vector<std::string> interface_names_;  // by id
};

}  // namespace vpna::netsim
