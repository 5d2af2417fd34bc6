#include "netsim/capture.h"

#include "util/strings.h"

namespace vpna::netsim {

void CaptureBuffer::record_impl(util::SimTime time, Direction dir,
                                std::string_view interface_name,
                                const Packet& packet) {
  records_.push_back(CaptureRecord{
      time, dir, std::string(interface_name),
      PacketHeader{packet.src, packet.dst, packet.proto, packet.src_port,
                   packet.dst_port, packet.ttl},
      packet.payload.size(), is_tunnel_frame(packet.payload)});
}

std::string CaptureBuffer::dump(std::size_t max_lines) const {
  std::string out;
  std::size_t lines = 0;
  for (const auto& r : records_) {
    if (lines >= max_lines) {
      out += util::format("... %zu more record(s)\n", records_.size() - lines);
      break;
    }
    out += util::format(
        "%9.3fs %-5s %-3s %s %s:%u -> %s:%u len=%zu%s\n",
        r.time.seconds(), r.interface_name.c_str(),
        r.direction == Direction::kOut ? "OUT" : "IN",
        std::string(proto_name(r.packet.proto)).c_str(),
        r.packet.src.str().c_str(), r.packet.src_port,
        r.packet.dst.str().c_str(), r.packet.dst_port, r.payload_size,
        r.encapsulated ? " [tunnel]" : "");
    ++lines;
  }
  return out;
}

}  // namespace vpna::netsim
