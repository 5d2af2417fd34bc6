// Fixed-width little-endian integers: the one encoding under every byte
// format the repo writes — the shard report codec (core/report_codec), the
// worker result frames (core/worker_protocol), the artifact header
// (store/artifact_store) and the tunnel frame header (netsim/packet). Byte order is spelled out with shifts, so each
// format is identical on any host.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

namespace vpna::util {

// Appends `v` as sizeof(T) little-endian bytes.
template <typename T>
void put_le(std::string& out, T v) {
  static_assert(std::is_unsigned_v<T>);
  for (std::size_t i = 0; i < sizeof(T); ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

// Reads sizeof(T) little-endian bytes at `p`; the caller checks bounds.
template <typename T>
[[nodiscard]] T get_le(const char* p) noexcept {
  static_assert(std::is_unsigned_v<T>);
  T v = 0;
  for (std::size_t i = sizeof(T); i-- > 0;)
    v = static_cast<T>((v << 8) | static_cast<unsigned char>(p[i]));
  return v;
}

}  // namespace vpna::util
