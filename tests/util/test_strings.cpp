#include "ecnprobe/util/strings.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>

namespace ecnprobe::util {
namespace {

TEST(Strf, FormatsLikePrintf) {
  EXPECT_EQ(strf("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(strf("empty"), "empty");
}

TEST(Strf, LongOutputAllocatesCorrectly) {
  const std::string long_arg(5000, 'a');
  const auto out = strf("[%s]", long_arg.c_str());
  EXPECT_EQ(out.size(), 5002u);
  EXPECT_EQ(out.front(), '[');
  EXPECT_EQ(out.back(), ']');
}

TEST(Split, KeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Split, NoSeparatorGivesWholeString) {
  const auto parts = split("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(Trim, RemovesSurroundingWhitespaceOnly) {
  EXPECT_EQ(trim("  a b \t\n"), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
}

TEST(ToLower, AsciiOnly) { EXPECT_EQ(to_lower("MiXeD123"), "mixed123"); }

TEST(CaseInsensitive, StartsWithAndEquals) {
  EXPECT_TRUE(istarts_with("Content-Length: 5", "content-length"));
  EXPECT_FALSE(istarts_with("Con", "content"));
  EXPECT_TRUE(iequals("HTTP/1.0", "http/1.0"));
  EXPECT_FALSE(iequals("a", "ab"));
}

TEST(WithCommas, GroupsThousands) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(155439), "155,439");
  EXPECT_EQ(with_commas(-1234567), "-1,234,567");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(json_escape(R"(say "hi")"), R"(say \"hi\")");
  EXPECT_EQ(json_escape(R"(C:\path)"), R"(C:\\path)");
  EXPECT_EQ(json_escape("a\nb\rc\td"), R"(a\nb\rc\td)");
  EXPECT_EQ(json_escape(std::string("nul\0bel\x07", 8)), R"(nul\u0000bel\u0007)");
  EXPECT_EQ(json_escape("\x1f"), R"(\u001f)");
  // Multi-byte UTF-8 (and DEL) pass through byte for byte.
  const std::string utf8 = "S\xc3\xa3o Paulo \xe2\x86\x92 \x7f";
  EXPECT_EQ(json_escape(utf8), utf8);
  EXPECT_EQ(json_escape(""), "");
}

TEST(JsonEscape, AppendAndSizeAgreeWithEscapeOnEveryByte) {
  std::string all;
  for (int c = 0; c < 256; ++c) all += static_cast<char>(c);
  std::string out = "prefix:";
  json_escape_append(out, all);
  EXPECT_EQ(out, "prefix:" + json_escape(all));
  EXPECT_EQ(json_escaped_size(all), json_escape(all).size());
  for (int c = 0; c < 256; ++c) {
    const std::string one(1, static_cast<char>(c));
    EXPECT_EQ(json_escaped_size(one), json_escape(one).size()) << c;
  }
  // Of the 32 control bytes, \n \r \t take two bytes and the other 29 take
  // six (\u00XX); quote and backslash take two; the other 222 bytes one.
  EXPECT_EQ(json_escaped_size(all), 29u * 6 + 3 * 2 + 2 * 2 + 222);
}

TEST(OptionList, SplitsTheHeadAndTrimsEveryKeyAndValue) {
  const auto list =
      split_options(" backoff , base-ms = 500 ,seed=7,note=", {"paper", "backoff"});
  ASSERT_TRUE(list) << list.error().message;
  EXPECT_EQ(list->head, "backoff");
  ASSERT_EQ(list->options.size(), 3u);
  EXPECT_EQ(list->options[0].key, "base-ms");
  EXPECT_EQ(list->options[0].value, "500");
  EXPECT_EQ(list->options[1].key, "seed");
  EXPECT_EQ(list->options[2].value, "");
  const auto headless = split_options("window-ms=5", {});
  ASSERT_TRUE(headless);
  EXPECT_EQ(headless->head, "");
  ASSERT_EQ(headless->options.size(), 1u);
  EXPECT_TRUE(split_options("none,poison=1,poison=2", {"none"}, "poison"));
}

TEST(OptionList, RefusesMalformedLists) {
  const std::pair<const char*, const char*> refused[] = {
      {"", "empty spec"},
      {" ", "empty spec"},
      {"turbo", "unknown 'turbo' (known: paper, backoff)"},
      {",seed=1", "unknown '' (known: paper, backoff)"},
      {"paper,base-ms", "expected key=value, got 'base-ms'"},
      {"paper,", "expected key=value, got ''"},
      {"paper,=5", "empty key in '=5'"},
      {"paper,seed=1, seed=2", "repeated key 'seed'"},
  };
  for (const auto& [spec, message] : refused) {
    const auto list = split_options(spec, {"paper", "backoff"});
    ASSERT_FALSE(list) << spec;
    EXPECT_EQ(list.error().message, message);
  }
}

TEST(OptionValue, ReadsWholeFiniteValuesWithinTheRange) {
  const auto ms = number_in(0.0, kMaxOptionMs, /*lo_open=*/true);
  for (const char* text : {"1e9", "1000000000", "0.001", "5"}) {
    EXPECT_TRUE(read_option({"base-ms", text}, ms)) << text;
  }
  for (const char* text :
       {"0", "-1", "1000000000.5", "inf", "-inf", "nan", "1e300", "1e400", "0x10", "+5",
        " 5", "5ms", ""}) {
    EXPECT_FALSE(read_option({"base-ms", text}, ms)) << text;
  }
  EXPECT_FALSE(std::signbit(read_option({"p", "-0"}, number_in(0.0, 1.0))->number));
  EXPECT_EQ(read_option({"base-ms", "inf"}, ms).error().message,
            "base-ms must be a number in (0, 1e9], got 'inf'");
  EXPECT_EQ(read_option({"rate", "0"}, number_in(1e-6, 1e9)).error().message,
            "rate must be a number in [1e-6, 1e9], got '0'");
  EXPECT_EQ(read_option({"p", "1"}, number_in(0.0, 1.0, false, true)).error().message,
            "p must be a number in [0, 1), got '1'");

  const auto attempts = integer_in(1, 100);
  EXPECT_EQ(read_option({"n", "100"}, attempts)->integer, 100u);
  for (const char* text : {"0", "101", "1.0", "1e2", "+5", "-5", "0x5", "05x", ""}) {
    EXPECT_FALSE(read_option({"n", text}, attempts)) << text;
  }
  EXPECT_EQ(read_option({"n", "101"}, attempts).error().message,
            "n must be an integer in [1, 100], got '101'");
  const auto seed = integer_in(0, UINT64_MAX);
  EXPECT_EQ(read_option({"seed", "18446744073709551615"}, seed)->integer, UINT64_MAX);
  EXPECT_FALSE(read_option({"seed", "18446744073709551616"}, seed));
  EXPECT_EQ(read_option({"seed", "-1"}, seed).error().message,
            "seed must be an integer in [0, 2^64), got '-1'");
}

struct Inner {
  int count = 0;
  SimDuration wait{};
};

struct Outer {
  Inner inner;
  double ratio = 0.0;
  std::uint64_t seed = 0;
};

TEST(OptionKey, StoresThroughMemberPathsAndRefusesUnknownKeys) {
  constexpr OptionKey<Outer> keys[] = {
      {"count", integer_in(0, 10), store<&Outer::inner, &Inner::count>},
      {"wait-ms", number_in(0.0, kMaxOptionMs), store<&Outer::inner, &Inner::wait>},
      {"ratio", number_in(0.0, 1.0), store<&Outer::ratio>},
      {"seed", integer_in(0, UINT64_MAX), store<&Outer::seed>},
  };
  const auto list = split_options("count=3,wait-ms=2.5,ratio=0.25,seed=9", {});
  ASSERT_TRUE(list);
  const auto out = read_options(Outer{}, list->options, keys);
  ASSERT_TRUE(out) << out.error().message;
  EXPECT_EQ(out->inner.count, 3);
  EXPECT_EQ(out->inner.wait, SimDuration::micros(2500));
  EXPECT_EQ(out->ratio, 0.25);
  EXPECT_EQ(out->seed, 9u);
  // The largest *-ms value converts to nanoseconds exactly.
  const auto widest = split_options("wait-ms=1e9", {});
  EXPECT_EQ(read_options(Outer{}, widest->options, keys)->inner.wait.count_nanos(),
            1'000'000'000'000'000);
  const auto unknown = split_options("count=3,cuont=4", {});
  EXPECT_EQ(read_options(Outer{}, unknown->options, keys).error().message,
            "unknown key 'cuont'");
}

}  // namespace
}  // namespace ecnprobe::util
