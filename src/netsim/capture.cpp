#include "netsim/capture.h"

#include <stdexcept>

#include "util/strings.h"

namespace vpna::netsim {

CaptureBuffer::InterfaceId CaptureBuffer::intern(std::string_view name) {
  if (const auto id = find_interface(name)) return *id;
  if (interface_names_.size() > 0xff)
    throw std::length_error("CaptureBuffer: more than 256 interface names");
  interface_names_.emplace_back(name);
  return static_cast<InterfaceId>(interface_names_.size() - 1);
}

std::optional<CaptureBuffer::InterfaceId> CaptureBuffer::find_interface(
    std::string_view name) const noexcept {
  for (std::size_t id = 0; id < interface_names_.size(); ++id)
    if (interface_names_[id] == name) return static_cast<InterfaceId>(id);
  return std::nullopt;
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
        r.time.seconds(), interface_name(r.interface_id).c_str(),
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
