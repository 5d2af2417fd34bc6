// String helpers shared across modules: split/join/trim, case folding,
// prefix/suffix tests and printf-style formatting into std::string.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace vpna::util {

// Splits on a single-character delimiter; keeps empty fields. The fields
// view `s`, so they must not outlive the string it points into.
[[nodiscard]] std::vector<std::string_view> split(std::string_view s,
                                                  char delim);

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
