#include "data/loader.h"

#include <fstream>
#include <string>

#include <gtest/gtest.h>

namespace nomad {
namespace {

TEST(ParseRatingsTextTest, BasicZeroBased) {
  auto r = ParseRatingsText("0 1 4.5\n2 0 3\n", /*one_based=*/false);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 2u);
  EXPECT_EQ(r.value()[0], (Rating{0, 1, 4.5f}));
  EXPECT_EQ(r.value()[1], (Rating{2, 0, 3.0f}));
}

TEST(ParseRatingsTextTest, OneBasedShifts) {
  auto r = ParseRatingsText("1 1 2\n", /*one_based=*/true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[0], (Rating{0, 0, 2.0f}));
}

TEST(ParseRatingsTextTest, CommentsAndBlanksSkipped) {
  auto r = ParseRatingsText("# header\n\n% matrix-market style\n0 0 1\n",
                            false);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 1u);
}

TEST(ParseRatingsTextTest, CommaAndDoubleColonSeparators) {
  auto csv = ParseRatingsText("3,4,2.5\n", false);
  ASSERT_TRUE(csv.ok());
  EXPECT_EQ(csv.value()[0], (Rating{3, 4, 2.5f}));
  // MovieLens ::-separated format.
  auto ml = ParseRatingsText("1::2::5::978300760\n", true);
  ASSERT_TRUE(ml.ok());
  EXPECT_EQ(ml.value()[0], (Rating{0, 1, 5.0f}));
}

TEST(ParseRatingsTextTest, TimestampColumnIgnored) {
  auto r = ParseRatingsText("0 1 4.0 881250949\n", false);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[0], (Rating{0, 1, 4.0f}));
}

TEST(ParseRatingsTextTest, MalformedLines) {
  EXPECT_FALSE(ParseRatingsText("0 1\n", false).ok());
  EXPECT_FALSE(ParseRatingsText("a b c\n", false).ok());
  EXPECT_FALSE(ParseRatingsText("0 1 x\n", false).ok());
  // One-based input containing a zero index underflows.
  EXPECT_FALSE(ParseRatingsText("0 1 2\n", true).ok());
  // Ids past int32 (4294967297 would wrap to 1) and non-finite ratings are
  // rejected with the offending line's number.
  const struct {
    const char* text;
    bool one_based;
  } rejected[] = {
      {"0 0 1\n4294967297 0 1\n", false},
      {"0 0 1\n0 4294967297 1\n", false},
      {"0 0 1\n2147483647 0 1\n", false},  // shape would overflow int32
      {"0 0 1\n0 0 nan\n", false},
      {"0 0 1\n0 0 inf\n", false},
      {"0 0 1\n0 0 -inf\n", false},
      {"0 0 1\n0 0 1e300\n", false},  // finite double, inf as float
      {"1 1 1\n2147483649 1 1\n", true},
      {"1 1 1\n-9223372036854775808 1 1\n", true},  // shift would overflow
  };
  for (const auto& c : rejected) {
    const auto parsed = ParseRatingsText(c.text, c.one_based);
    ASSERT_FALSE(parsed.ok()) << c.text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << c.text;
    EXPECT_NE(parsed.status().ToString().find("line 2"), std::string::npos)
        << parsed.status().ToString();
  }
  // The largest accepted id still sizes into an int32 shape.
  EXPECT_TRUE(ParseRatingsText("2147483646 0 1\n", false).ok());
  EXPECT_TRUE(ParseRatingsText("2147483647 1 1\n", true).ok());
}

TEST(LoadRatingsFileTest, LoadsAndSizes) {
  const std::string path = ::testing::TempDir() + "/ratings.txt";
  {
    std::ofstream out(path);
    out << "# test file\n0 0 1\n2 3 4.5\n1 1 2\n";
  }
  auto m = LoadRatingsFile(path, false);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.value().rows(), 3);
  EXPECT_EQ(m.value().cols(), 4);
  EXPECT_EQ(m.value().nnz(), 3);
}

TEST(LoadRatingsFileTest, MissingFileIsIOError) {
  auto m = LoadRatingsFile("/nonexistent/no.txt", false);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace nomad
