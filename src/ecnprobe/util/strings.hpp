// Small string helpers: printf-style formatting into std::string (GCC 12
// lacks std::format), splitting, trimming, case folding, strict number
// parsing, the option-list grammar, and JSON string escaping.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "ecnprobe/util/expected.hpp"
#include "ecnprobe/util/time.hpp"

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

/// Parses all of `s` as an integer of type T in `base` (digits, then
/// letters either case past 10, no "0x"): a leading '-' allowed for
/// signed T only; no '+', no whitespace, nothing after the digits, and
/// within T's range. Empty on anything else.
template <typename T>
std::optional<T> parse_integer(std::string_view s, int base = 10) {
  T value{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), value, base);
  if (ec != std::errc{} || end != s.data() + s.size()) return std::nullopt;
  return value;
}

/// Parses all of `s` as a finite decimal number ("0.05", "-2", "1e-3"):
/// no '+', no whitespace, no hex, no inf/nan, nothing after. Empty on
/// anything else.
std::optional<double> parse_number(std::string_view s);

/// One `key=value` option of an option list, key and value trimmed.
struct Option {
  std::string_view key;
  std::string_view value;
};

/// "HEAD,key=value,...": the head word and the options, views into the spec.
struct OptionList {
  std::string_view head;
  std::vector<Option> options;
};

/// The one grammar of the --faults, --telemetry, --timeseries and --sched
/// languages: splits `spec` on commas and trims every part, key and value.
/// Unless `heads` is empty, the first part is the head word, one of them.
/// Refuses an empty spec, another head, a part without '=', an empty key,
/// and a repeated key but `repeatable`.
Expected<OptionList> split_options(std::string_view spec,
                                   const std::vector<std::string>& heads,
                                   std::string_view repeatable = {});

/// The largest value of any `*-ms` option: ms x 1e6 fits int64 nanoseconds.
inline constexpr double kMaxOptionMs = 1e9;

/// The values one option key takes: whole base-10 integers in [min, max],
/// or finite decimal numbers from lo to hi, an open end excluding its bound.
struct OptionRange {
  bool integer = false;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  double lo = 0.0;
  double hi = 0.0;
  bool lo_open = false;
  bool hi_open = false;
};

constexpr OptionRange integer_in(std::uint64_t min, std::uint64_t max) {
  return {.integer = true, .min = min, .max = max};
}

constexpr OptionRange number_in(double lo, double hi, bool lo_open = false,
                                bool hi_open = false) {
  return {.lo = lo, .hi = hi, .lo_open = lo_open, .hi_open = hi_open};
}

/// An admitted value: an integer is in `integer`, all 64 bits, and in
/// `number`; a number is in `number` only.
struct OptionValue {
  std::uint64_t integer = 0;
  double number = 0.0;
};

/// Reads `option.value` whole against `range`; the refusal reads "<key>
/// must be an integer in [1, 100], got '<value>'" or "a number in (0, 1e9]".
Expected<OptionValue> read_option(const Option& option, const OptionRange& range);

/// Stores a value in the field at `Path`, a member pointer or a chain of
/// them into nested structs. A SimDuration field takes it as milliseconds,
/// which every admitted `*-ms` value (at most kMaxOptionMs) converts to
/// without overflow; other fields take it as their own type.
template <auto... Path, typename Config>
void store(Config& config, OptionValue value) {
  auto& field = (config .* ... .* Path);
  using Field = std::remove_reference_t<decltype(field)>;
  if constexpr (std::is_same_v<Field, SimDuration>) {
    field = SimDuration::nanos(static_cast<std::int64_t>(value.number * 1e6));
  } else if constexpr (std::is_floating_point_v<Field>) {
    field = value.number;
  } else {
    field = static_cast<Field>(value.integer);
  }
}

/// One row of a key table: the key, its range, and where its value goes.
template <typename Config>
struct OptionKey {
  std::string_view key;
  OptionRange range;
  void (*store)(Config&, OptionValue);
};

/// Reads `options` in order into `config` through `keys`. Refuses a key the
/// table lacks and every value read_option() refuses.
template <typename Config, std::size_t N>
Expected<Config> read_options(Config config, const std::vector<Option>& options,
                              const OptionKey<Config> (&keys)[N]) {
  for (const Option& option : options) {
    const auto* row =
        std::find_if(keys, keys + N, [&](auto& key) { return key.key == option.key; });
    if (row == keys + N) {
      return make_error("option", "unknown key '" + std::string(option.key) + "'");
    }
    const auto value = read_option(option, row->range);
    if (!value) return value.error();
    row->store(config, *value);
  }
  return config;
}

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
