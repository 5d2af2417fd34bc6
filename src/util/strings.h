// String helpers shared across modules: split/join/trim, case folding,
// prefix/suffix tests and printf-style formatting into std::string.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace vpna::util {

// Calls `visit(field)` for each field of `s` split on a single-character
// delimiter, in order, empty fields kept ("a,,b," has four). Stops at the
// first field `visit` returns false for; returns false iff it stopped
// early. The fields view `s`; nothing is allocated.
template <typename Visit>
bool for_each_field(std::string_view s, char delim, Visit&& visit) {
  while (true) {
    const std::size_t pos = s.find(delim);
    if (!visit(s.substr(0, pos))) return false;
    if (pos == std::string_view::npos) return true;
    s.remove_prefix(pos + 1);
  }
}

// Splits `s` into exactly N fields as for_each_field does; nullopt when it
// has any other number of fields. Nothing is allocated.
template <std::size_t N>
[[nodiscard]] std::optional<std::array<std::string_view, N>> split_exact(
    std::string_view s, char delim) {
  std::array<std::string_view, N> fields;
  std::size_t n = 0;
  const bool fits = for_each_field(s, delim, [&](std::string_view field) {
    if (n == N) return false;
    fields[n++] = field;
    return true;
  });
  if (!fits || n != N) return std::nullopt;
  return fields;
}

// Splits on a single-character delimiter; keeps empty fields. The fields
// view `s`, so they must not outlive the string it points into.
[[nodiscard]] std::vector<std::string_view> split(std::string_view s,
                                                  char delim);

// The leading C string of `s`: everything before its first NUL. Encoders
// that used to write fields with printf's %s keep their exact bytes with it.
[[nodiscard]] constexpr std::string_view c_str_view(std::string_view s) {
  return s.substr(0, s.find('\0'));
}

// Joins with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

// Removes leading/trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

// ASCII lowercase copy.
[[nodiscard]] std::string to_lower(std::string_view s);

[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);
[[nodiscard]] bool ends_with(std::string_view s, std::string_view suffix);
[[nodiscard]] bool contains(std::string_view s, std::string_view needle);

// printf into a std::string.
[[nodiscard]] std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace vpna::util
