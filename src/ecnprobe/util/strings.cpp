#include "ecnprobe/util/strings.hpp"

#include <cctype>
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

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
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

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strf("\\u%04x", static_cast<unsigned>(c));
        } else {
          out += c;
        }
    }
  }
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
