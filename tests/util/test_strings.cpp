#include "ecnprobe/util/strings.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace ecnprobe::util
