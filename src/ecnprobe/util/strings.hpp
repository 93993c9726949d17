// Small string helpers: printf-style formatting into std::string (GCC 12
// lacks std::format), splitting, trimming, case folding, strict number
// parsing, and JSON string escaping.
#pragma once

#include <charconv>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
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

/// Parses all of `s` as a base-10 integer of type T: digits with a
/// leading '-' allowed for signed T only; no '+', no whitespace, nothing
/// after the digits, and within T's range. Empty on anything else.
template <typename T>
std::optional<T> parse_integer(std::string_view s) {
  T value{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || end != s.data() + s.size()) return std::nullopt;
  return value;
}

/// Parses all of `s` as a finite decimal number ("0.05", "-2", "1e-3"):
/// no '+', no whitespace, no hex, no inf/nan, nothing after. Empty on
/// anything else.
std::optional<double> parse_number(std::string_view s);

/// Formats a count with thousands separators ("155439" -> "155,439").
std::string with_commas(std::int64_t n);

/// Escapes `s` for use inside a JSON string literal (quotes not added):
/// `"` and `\` get a backslash, \n \r \t their short forms, any other
/// byte below 0x20 becomes \u00XX. Every other byte, UTF-8 included,
/// passes through unchanged. The one escape rule every JSON encoder uses;
/// json_escape() is json_escape_append() into a fresh string.
std::string json_escape(std::string_view s);

/// Appends the escaped form of `s` to `out`.
void json_escape_append(std::string& out, std::string_view s);

/// Length of the escaped form of `s`, for exact-size reservations.
std::size_t json_escaped_size(std::string_view s);

}  // namespace ecnprobe::util
