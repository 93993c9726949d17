// Small string helpers: printf-style formatting into std::string (GCC 12
// lacks std::format), splitting, trimming, case folding, and JSON string
// escaping.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace ecnprobe::util {

/// printf-style formatting into a std::string.
[[gnu::format(printf, 1, 2)]]
std::string strf(const char* fmt, ...);

/// Splits on a single character; keeps empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// ASCII lower-casing (sufficient for protocol tokens and domain names).
std::string to_lower(std::string_view s);

/// True if `s` starts with `prefix`, case-insensitively (ASCII).
bool istarts_with(std::string_view s, std::string_view prefix);

/// True if the two strings are equal, case-insensitively (ASCII).
bool iequals(std::string_view a, std::string_view b);

/// Formats a count with thousands separators ("155439" -> "155,439").
std::string with_commas(std::int64_t n);

/// Escapes `s` for use inside a JSON string literal (quotes not added):
/// `"` and `\` get a backslash, \n \r \t their short forms, any other
/// byte below 0x20 becomes \u00XX. Every other byte, UTF-8 included,
/// passes through unchanged. The one escaper every JSON encoder uses.
std::string json_escape(std::string_view s);

}  // namespace ecnprobe::util
