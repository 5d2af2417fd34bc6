// Process memory telemetry: the peak resident set size read from
// /proc/self/status. Wall-clock-style observability — never part of any
// deterministic payload — used by the scaled-campaign report and the bench
// harness's peak-RSS columns. Degrades to 0 — never garbage — when procfs
// is unavailable, the field is absent, or a line is malformed.
#pragma once

#include <cctype>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

namespace vpna::util {

namespace detail {

// Parses "<key>\s*<digits>( kB)?" out of a /proc/self/status-style buffer.
// Strict where it matters: the key must start a line, the value must have
// at least one digit, and a unit (when present) must be kB. Anything else
// — key missing, non-numeric value, foreign unit, truncated line — reads
// as 0, so telemetry consumers see "unknown", never a garbage number.
// Split out from the procfs read so tests can feed malformed buffers.
inline std::size_t parse_status_kb(std::string_view status,
                                   std::string_view key) noexcept {
  std::size_t line_start = 0;
  while (line_start < status.size()) {
    std::size_t line_end = status.find('\n', line_start);
    if (line_end == std::string_view::npos) line_end = status.size();
    const std::string_view line =
        status.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    if (line.substr(0, key.size()) != key) continue;

    std::size_t pos = key.size();
    while (pos < line.size() &&
           (line[pos] == ' ' || line[pos] == '\t'))
      ++pos;
    std::size_t digits_end = pos;
    while (digits_end < line.size() &&
           std::isdigit(static_cast<unsigned char>(line[digits_end])))
      ++digits_end;
    if (digits_end == pos) return 0;  // "VmHWM:" with no numeric value

    std::size_t kb = 0;
    for (std::size_t i = pos; i < digits_end; ++i) {
      const auto digit = static_cast<std::size_t>(line[i] - '0');
      if (kb > (static_cast<std::size_t>(-1) - digit) / 10) return 0;
      kb = kb * 10 + digit;
    }

    std::size_t unit = digits_end;
    while (unit < line.size() && (line[unit] == ' ' || line[unit] == '\t'))
      ++unit;
    std::string_view rest = line.substr(unit);
    while (!rest.empty() && (rest.back() == '\r' || rest.back() == ' '))
      rest.remove_suffix(1);
    if (!rest.empty() && rest != "kB") return 0;  // bytes? pages? unknown.
    return kb;
  }
  return 0;  // field absent (not every kernel exposes every Vm* line)
}

inline std::size_t proc_status_kb(const char* key) noexcept {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  // /proc/self/status is ~1.5 KiB; one fixed buffer covers it with slack,
  // and a field past the truncation point reads as absent (0), not garbage.
  char buf[8192];
  const std::size_t n = std::fread(buf, 1, sizeof buf, f);
  std::fclose(f);
  return parse_status_kb(std::string_view(buf, n), key);
}

}  // namespace detail

// High-water-mark resident set size of this process, in KiB (VmHWM).
inline std::size_t peak_rss_kb() noexcept {
  return detail::proc_status_kb("VmHWM:");
}

}  // namespace vpna::util
