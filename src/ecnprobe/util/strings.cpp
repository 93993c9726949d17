#include "ecnprobe/util/strings.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "ecnprobe/util/time.hpp"

namespace ecnprobe::util {

std::string strf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  }
  va_end(args2);
  return out;
}

namespace {

template <class Field>
std::vector<Field> split_into(std::string_view s, char sep) {
  std::vector<Field> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

}  // namespace

std::vector<std::string> split(std::string_view s, char sep) {
  return split_into<std::string>(s, sep);
}

std::vector<std::string_view> split_views(std::string_view s, char sep) {
  return split_into<std::string_view>(s, sep);
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.remove_suffix(1);
  return s;
}

std::string to_lower(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  return out;
}

bool istarts_with(std::string_view s, std::string_view prefix) {
  if (s.size() < prefix.size()) return false;
  return iequals(s.substr(0, prefix.size()), prefix);
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::optional<double> parse_number(std::string_view s) {
  double value = 0.0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || end != s.data() + s.size() || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

Expected<OptionList> split_options(std::string_view spec,
                                   const std::vector<std::string>& heads,
                                   std::string_view repeatable) {
  const auto refuse = [](const std::string& what) { return make_error("option", what); };
  if (trim(spec).empty()) return refuse("empty spec");
  OptionList list;
  for (std::size_t start = 0; start <= spec.size();) {
    const std::size_t comma = std::min(spec.find(',', start), spec.size());
    const std::string_view part = trim(spec.substr(start, comma - start));
    if (start == 0 && !heads.empty()) {
      if (std::find(heads.begin(), heads.end(), part) == heads.end()) {
        std::string known;
        for (const auto& head : heads) known += (known.empty() ? "" : ", ") + head;
        return refuse("unknown '" + std::string(part) + "' (known: " + known + ")");
      }
      list.head = part;
    } else {
      const std::size_t eq = part.find('=');
      if (eq == std::string_view::npos) {
        return refuse("expected key=value, got '" + std::string(part) + "'");
      }
      const Option option{trim(part.substr(0, eq)), trim(part.substr(eq + 1))};
      if (option.key.empty()) return refuse("empty key in '" + std::string(part) + "'");
      for (const Option& earlier : list.options) {
        if (earlier.key == option.key && option.key != repeatable) {
          return refuse("repeated key '" + std::string(option.key) + "'");
        }
      }
      list.options.push_back(option);
    }
    start = comma + 1;
  }
  return list;
}

namespace {

/// A range bound as the docs write it: "0.5", "1e9", "1e-6".
std::string bound_text(double x) {
  const std::string text = strf("%g", x);
  const std::size_t e = text.find('e');
  if (e == std::string::npos) return text;
  return text.substr(0, e + 1) + (text[e + 1] == '-' ? "-" : "") +
         text.substr(text.find_first_not_of("+-0", e + 1));
}

}  // namespace

std::string describe(const OptionRange& range) {
  if (range.integer) {
    return "an integer in [" + std::to_string(range.min) + ", " +
           (range.max == UINT64_MAX ? "2^64)" : std::to_string(range.max) + "]");
  }
  return strf("a number in %c%s, %s%c", range.lo_open ? '(' : '[',
              bound_text(range.lo).c_str(), bound_text(range.hi).c_str(),
              range.hi_open ? ')' : ']');
}

Expected<OptionValue> read_option(const Option& option, const OptionRange& range) {
  if (range.integer) {
    const auto n = parse_integer<std::uint64_t>(option.value);
    if (n && admits(range, *n)) return OptionValue{*n, static_cast<double>(*n)};
  } else if (const auto x = parse_number(option.value); x && admits(range, *x)) {
    return OptionValue{0, *x + 0.0};  // -0 reads as 0: equal plans serialise equally
  }
  return make_error("option", std::string(option.key) + " must be " + describe(range) +
                                  ", got '" + std::string(option.value) + "'");
}

std::string with_commas(std::int64_t n) {
  std::string digits = std::to_string(n < 0 ? -n : n);
  std::string out;
  const std::size_t len = digits.size();
  for (std::size_t i = 0; i < len; ++i) {
    if (i != 0 && (len - i) % 3 == 0) out.push_back(',');
    out.push_back(digits[i]);
  }
  return n < 0 ? "-" + out : out;
}

namespace {

/// The two-byte escape of `c` (a backslash and a letter or `c` itself), or
/// empty when `c` passes through unchanged or takes the \u00XX form.
std::string_view short_escape(unsigned char c) {
  switch (c) {
    case '"': return "\\\"";
    case '\\': return "\\\\";
    case '\n': return "\\n";
    case '\r': return "\\r";
    case '\t': return "\\t";
    default: return {};
  }
}

bool needs_escape(unsigned char c) { return c < 0x20 || c == '"' || c == '\\'; }

}  // namespace

void json_escape_append(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // start of the bytes not yet copied
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (!needs_escape(c)) continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    const std::string_view escape = short_escape(c);
    if (!escape.empty()) {
      out += escape;
    } else {
      const char unicode[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
      out.append(unicode, sizeof unicode);
    }
  }
  out.append(s.data() + run, s.size() - run);
}

std::size_t json_escaped_size(std::string_view s) {
  std::size_t size = s.size();
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (needs_escape(c)) size += short_escape(c).empty() ? std::size_t{5} : std::size_t{1};
  }
  return size;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(json_escaped_size(s));
  json_escape_append(out, s);
  return out;
}

std::string SimDuration::to_string() const {
  if (ns_ % 1'000'000'000 == 0) return strf("%llds", static_cast<long long>(ns_ / 1'000'000'000));
  if (ns_ % 1'000'000 == 0) return strf("%lldms", static_cast<long long>(ns_ / 1'000'000));
  if (ns_ % 1'000 == 0) return strf("%lldus", static_cast<long long>(ns_ / 1'000));
  return strf("%lldns", static_cast<long long>(ns_));
}

std::string SimTime::to_string() const {
  return strf("t=%.6fs", to_seconds());
}

}  // namespace ecnprobe::util
