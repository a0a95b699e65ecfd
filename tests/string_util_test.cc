#include "util/string_util.h"

#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

namespace nomad {
namespace {

TEST(SplitFieldsTest, BasicWhitespace) {
  const auto f = SplitFields("1  2\t3");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "1");
  EXPECT_EQ(f[1], "2");
  EXPECT_EQ(f[2], "3");
}

TEST(SplitFieldsTest, CommaSeparated) {
  const auto f = SplitFields("a,b,,c");
  ASSERT_EQ(f.size(), 3u);  // empty fields dropped
  EXPECT_EQ(f[2], "c");
}

TEST(SplitFieldsTest, EmptyInput) {
  EXPECT_TRUE(SplitFields("").empty());
  EXPECT_TRUE(SplitFields("   ").empty());
}

TEST(StripWhitespaceTest, Strips) {
  EXPECT_EQ(StripWhitespace("  x  "), "x");
  EXPECT_EQ(StripWhitespace("\t a b \r\n"), "a b");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t\r\n"), "");
}

TEST(ParseInt64Test, Valid) {
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64("-17").value(), -17);
  EXPECT_EQ(ParseInt64("  123 ").value(), 123);
  EXPECT_EQ(ParseInt64("9223372036854775807").value(),
            9223372036854775807LL);
}

TEST(ParseInt64Test, Invalid) {
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("4.5").ok());
  EXPECT_FALSE(ParseInt64("99999999999999999999999").ok());
}

TEST(ParseDoubleTest, Valid) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e-3").value(), -1e-3);
  EXPECT_DOUBLE_EQ(ParseDouble(" 2 ").value(), 2.0);
}

TEST(ParseDoubleTest, Invalid) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("1.2.3").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
}

// The accepted number format, case by case: status code and value.
TEST(ParseInt64Test, FormatTable) {
  const struct {
    const char* text;
    StatusCode code;
    int64_t want;
  } cases[] = {
      {"+12", StatusCode::kOk, 12},
      {"00012", StatusCode::kOk, 12},
      {"-0", StatusCode::kOk, 0},
      {"\v7\r", StatusCode::kOk, 7},
      {"-9223372036854775808", StatusCode::kOk, INT64_MIN},
      {"9223372036854775808", StatusCode::kOutOfRange, 0},
      {"-9223372036854775809", StatusCode::kOutOfRange, 0},
      {"+-1", StatusCode::kInvalidArgument, 0},
      {"--1", StatusCode::kInvalidArgument, 0},
      {"0x1", StatusCode::kInvalidArgument, 0},
      {"1 2", StatusCode::kInvalidArgument, 0},
      {"\r", StatusCode::kInvalidArgument, 0},
      {"0000000000000000000000000000000000000000000000000000000000000001",
       StatusCode::kInvalidArgument, 0},  // 64 characters: too long
  };
  for (const auto& c : cases) {
    const auto r = ParseInt64(c.text);
    EXPECT_EQ(r.status().code(), c.code) << c.text;
    if (!r.ok()) continue;
    EXPECT_EQ(r.value(), c.want) << c.text;
  }
}

TEST(ParseDoubleTest, FormatTable) {
  const struct {
    const char* text;
    StatusCode code;
    double want;
  } cases[] = {
      {"+4.5", StatusCode::kOk, 4.5},
      {"0x1p3", StatusCode::kOk, 8.0},
      {"-0X.8", StatusCode::kOk, -0.5},
      {"0x1p-1074", StatusCode::kOk, 0x1p-1074},  // exact subnormal
      {"4.", StatusCode::kOk, 4.0},
      {".5", StatusCode::kOk, 0.5},
      {"1E2", StatusCode::kOk, 100.0},
      {"00012", StatusCode::kOk, 12.0},
      {"-0", StatusCode::kOk, -0.0},
      {"\f2.5", StatusCode::kOk, 2.5},
      {"2.2250738585072014e-308", StatusCode::kOk, 2.2250738585072014e-308},
      {"1e-310", StatusCode::kOutOfRange, 0},
      {"2.2250738585072011e-308", StatusCode::kOutOfRange, 0},
      {"1e-400", StatusCode::kOutOfRange, 0},
      {"-1e400", StatusCode::kOutOfRange, 0},
      {"4.5x", StatusCode::kInvalidArgument, 0},
      {"1e", StatusCode::kInvalidArgument, 0},
      {"0x", StatusCode::kInvalidArgument, 0},
      {"+-1", StatusCode::kInvalidArgument, 0},
      {"+ 1", StatusCode::kInvalidArgument, 0},
  };
  for (const auto& c : cases) {
    const auto r = ParseDouble(c.text);
    EXPECT_EQ(r.status().code(), c.code) << c.text;
    if (!r.ok()) continue;
    EXPECT_EQ(r.value(), c.want) << c.text;
    EXPECT_EQ(std::signbit(r.value()), std::signbit(c.want)) << c.text;
  }
  EXPECT_TRUE(std::isinf(ParseDouble("+inf").value()));
  EXPECT_TRUE(std::isinf(ParseDouble("-Infinity").value()));
  EXPECT_TRUE(std::isnan(ParseDouble("nan(0x1)").value()));
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-f", "--"));
  EXPECT_TRUE(StartsWith("x", ""));
}

TEST(StrFormatTest, Formats) {
  EXPECT_EQ(StrFormat("%d/%d", 3, 4), "3/4");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(HumanBytesTest, Units) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KiB");
  EXPECT_EQ(HumanBytes(3ULL << 30), "3.0 GiB");
}

TEST(HumanCountTest, Units) {
  EXPECT_EQ(HumanCount(999), "999");
  EXPECT_EQ(HumanCount(99072112), "99.07M");
  EXPECT_EQ(HumanCount(2736496604.0), "2.74G");
}

}  // namespace
}  // namespace nomad
