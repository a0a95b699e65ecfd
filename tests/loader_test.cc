#include "data/loader.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/splitter.h"
#include "util/rng.h"
#include "util/string_util.h"

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

// The accepted input format, case by case: each line is parsed alone and
// must give exactly this status code and, when accepted, this rating.
TEST(ParseRatingsTextTest, AcceptedFormatTable) {
  const struct {
    const char* text;
    bool one_based;
    StatusCode code;
    Rating want;
  } cases[] = {
      // A leading '+' is accepted on ids and ratings.
      {"0 1 +4.5\n", false, StatusCode::kOk, {0, 1, 4.5f}},
      {"+12 1 3\n", false, StatusCode::kOk, {12, 1, 3.0f}},
      {"1 +12 3\n", true, StatusCode::kOk, {0, 11, 3.0f}},
      {"0 0 +-1\n", false, StatusCode::kInvalidArgument, {}},
      {"+-1 0 1\n", false, StatusCode::kInvalidArgument, {}},
      // Hex floats are accepted as ratings, never as ids.
      {"0 0 0x1p3\n", false, StatusCode::kOk, {0, 0, 8.0f}},
      {"0 0 0X.8\n", false, StatusCode::kOk, {0, 0, 0.5f}},
      {"0 0 0x\n", false, StatusCode::kInvalidArgument, {}},
      {"0x1 0 1\n", false, StatusCode::kInvalidArgument, {}},
      // Subnormal and underflowing ratings are out of range.
      {"0 0 1e-310\n", false, StatusCode::kOutOfRange, {}},
      {"0 0 1e-400\n", false, StatusCode::kOutOfRange, {}},
      {"0 0 1e400\n", false, StatusCode::kOutOfRange, {}},
      {"0 0 2.2250738585072014e-308\n", false, StatusCode::kOk,
       {0, 0, 0.0f}},
      // Decimal spellings.
      {"0 0 4.\n", false, StatusCode::kOk, {0, 0, 4.0f}},
      {"0 0 .5\n", false, StatusCode::kOk, {0, 0, 0.5f}},
      {"0 0 1E2\n", false, StatusCode::kOk, {0, 0, 100.0f}},
      {"00012 0 1\n", false, StatusCode::kOk, {12, 0, 1.0f}},
      {"-0 -0 -0\n", false, StatusCode::kOk, {0, 0, -0.0f}},
      {"0 0 4.5x\n", false, StatusCode::kInvalidArgument, {}},
      {"0 0 1e\n", false, StatusCode::kInvalidArgument, {}},
      {"0 0 4,5\n", false, StatusCode::kOk, {0, 0, 4.0f}},
      {"12x 0 1\n", false, StatusCode::kInvalidArgument, {}},
      {"4.5 0 1\n", false, StatusCode::kInvalidArgument, {}},
      {"99999999999999999999 0 1\n", false, StatusCode::kOutOfRange, {}},
      // Line endings, separators and comments.
      {"0 1 4.5\r\n", false, StatusCode::kOk, {0, 1, 4.5f}},
      {"0\r 1 4.5\n", false, StatusCode::kOk, {0, 1, 4.5f}},
      {"\t0\t1\t4.5\t\n", false, StatusCode::kOk, {0, 1, 4.5f}},
      {"1::2::5::978300760\n", true, StatusCode::kOk, {0, 1, 5.0f}},
      {"3,4,,2.5\n", false, StatusCode::kOk, {3, 4, 2.5f}},
      {"0 1 4 trailing garbage\n", false, StatusCode::kOk, {0, 1, 4.0f}},
      {"# 0 0 x\n  % 0 0 x\n\r\n0 2 1", false, StatusCode::kOk,
       {0, 2, 1.0f}},
      {"0 1 \r\n", false, StatusCode::kInvalidArgument, {}},
  };
  for (const auto& c : cases) {
    const auto parsed = ParseRatingsText(c.text, c.one_based);
    EXPECT_EQ(parsed.status().code(), c.code)
        << c.text << " -> " << parsed.status().ToString();
    if (!parsed.ok() || c.code != StatusCode::kOk) continue;
    ASSERT_EQ(parsed.value().size(), 1u) << c.text;
    const Rating& got = parsed.value()[0];
    EXPECT_EQ(got, c.want) << c.text;
    EXPECT_EQ(std::signbit(got.value), std::signbit(c.want.value)) << c.text;
  }
}

TEST(ParseRatingsTextTest, EveryErrorNamesItsLine) {
  const struct {
    const char* text;
    StatusCode code;
    const char* message;
  } cases[] = {
      {"0 1\n", StatusCode::kInvalidArgument,
       "line 1: expected 'user item rating'"},
      {"0 0 1\na b c\n", StatusCode::kInvalidArgument,
       "line 2: bad integer: 'a'"},
      {"0 0 1\n# c\n0 x 1\n", StatusCode::kInvalidArgument,
       "line 3: bad integer: 'x'"},
      {"0 0 1\n0 1 x\n", StatusCode::kInvalidArgument, "line 2: bad float: 'x'"},
      {"\n\n0 0 1e-400", StatusCode::kOutOfRange, "line 3: float out of range"},
      {"0 0 1\n99999999999999999999 0 1\n", StatusCode::kOutOfRange,
       "line 2: integer out of range"},
      {"0 0 1\r\n0 0 \r 1\r\n", StatusCode::kInvalidArgument,
       "line 2: empty float field"},
  };
  for (const auto& c : cases) {
    const auto parsed = ParseRatingsText(c.text, false);
    ASSERT_FALSE(parsed.ok()) << c.text;
    EXPECT_EQ(parsed.status().code(), c.code) << c.text;
    EXPECT_EQ(parsed.status().message(), c.message) << c.text;
  }
}

// Several megabytes parse in several chunks; the error on the lowest line
// wins whichever chunk finishes first.
TEST(ParseRatingsTextTest, LowestBadLineWinsAcrossChunks) {
  constexpr int kLines = 200000;  // ~3 MB
  std::vector<std::string> lines;
  for (int i = 0; i < kLines; ++i) {
    lines.push_back(StrFormat("%d %d 3.5", i / 100, i % 100));
  }
  auto text_with = [&lines](std::vector<int> bad_lines) {
    std::vector<std::string> copy = lines;
    for (int l : bad_lines) copy[static_cast<size_t>(l - 1)] = "1 2 oops";
    std::string text;
    for (const std::string& line : copy) text += line + "\n";
    return text;
  };
  const auto good = ParseRatingsText(text_with({}), false);
  ASSERT_TRUE(good.ok());
  ASSERT_EQ(good.value().size(), static_cast<size_t>(kLines));
  EXPECT_EQ(good.value()[kLines - 1], (Rating{1999, 99, 3.5f}));

  const int early = kLines * 2 / 5;  // the second of two or three chunks
  const int late = kLines * 9 / 10;  // the last chunk
  for (const auto& bad : std::vector<std::vector<int>>{
           {early, late}, {early}, {late}, {3, late}}) {
    const int lowest = *std::min_element(bad.begin(), bad.end());
    const auto parsed = ParseRatingsText(text_with(bad), false);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().message(),
              StrFormat("line %d: bad float: 'oops'", lowest));
  }
}

// Lines as short as a rating can be fill every slot the parser sets aside;
// a flood of blank lines still numbers the line after it right.
TEST(ParseRatingsTextTest, ShortestLinesAndBlankFloods) {
  constexpr int kLines = 600000;  // ~3.6 MB
  std::string shortest;
  for (int i = 0; i < kLines; ++i) shortest += "0 0 1\n";
  shortest += "9 9 9";  // unended
  const auto parsed = ParseRatingsText(shortest, false);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().size(), static_cast<size_t>(kLines) + 1);
  EXPECT_EQ(parsed.value().back(), (Rating{9, 9, 9.0f}));

  std::string blanks(3 << 20, '\n');
  const auto one = ParseRatingsText(blanks + "1 2 3\n", false);
  ASSERT_TRUE(one.ok());
  ASSERT_EQ(one.value().size(), 1u);
  EXPECT_EQ(one.value()[0], (Rating{1, 2, 3.0f}));
  const auto bad = ParseRatingsText(blanks + "1 2 x", false);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().message(),
            StrFormat("line %d: bad float: 'x'", (3 << 20) + 1));
}

// FNV-1a over both layouts of `m`, so equal fingerprints mean equal arrays.
uint64_t Fingerprint(const SparseMatrix& m) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ULL;
  };
  const int32_t dims[2] = {m.rows(), m.cols()};
  mix(dims, sizeof(dims));
  for (int32_t i = 0; i < m.rows(); ++i) {
    const int32_t n = m.RowNnz(i);
    mix(&n, sizeof(n));
    mix(m.RowCols(i), sizeof(int32_t) * n);
    mix(m.RowVals(i), sizeof(float) * n);
  }
  for (int32_t j = 0; j < m.cols(); ++j) {
    const int64_t off = m.ColOffset(j);
    const int32_t n = m.ColNnz(j);
    mix(&off, sizeof(off));
    mix(m.ColRows(j), sizeof(int32_t) * n);
    mix(m.ColVals(j), sizeof(float) * n);
  }
  return h;
}

// A ~3 MB ratings file in shuffled order, with comments, CRLF endings and
// mixed separators, so that it spans several parse chunks.
std::string ShuffledRatingsText() {
  Rng rng(2024);
  std::vector<std::string> lines;
  for (int32_t u = 0; u < 6000; ++u) {
    const int n = u == 17 ? 290 : 1 + static_cast<int>(rng.NextBelow(60));
    for (int k = 0; k < n; ++k) {
      const int32_t item = (u * 7 + k * 13) % 300;  // distinct in k < 300
      const double value = 1.0 + 4.0 * rng.NextDouble();
      const char* fmt = k % 5 == 0   ? "%d,%d,%.5f\r"
                        : k % 7 == 0 ? "%d::%d::%.5f::978300760"
                                     : "%d %d %.5f";
      lines.push_back(StrFormat(fmt, u, item, value));
    }
  }
  std::vector<size_t> order(lines.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(&order);
  std::string text = "# user item rating\n";
  for (size_t i = 0; i < order.size(); ++i) {
    if (i % 1000 == 0) text += "\n% block\n";
    text += lines[order[i]];
    text += '\n';
  }
  return text;
}

// Pins the arrays that loading, splitting and transposing produce for one
// file and seed, so a faster ingest path must reproduce them byte for byte.
TEST(LoadRatingsFileTest, IngestOutputIsPinned) {
  const std::string path = ::testing::TempDir() + "/shuffled_ratings.txt";
  {
    std::ofstream out(path, std::ios::binary);
    out << ShuffledRatingsText();
  }
  auto m = LoadRatingsFile(path, false);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m.value().nnz(), 184156);
  EXPECT_EQ(Fingerprint(m.value()), 17109129044862649252ULL);
  const Dataset split = SplitTrainTest(m.value(), 0.2, 11, "s").value();
  EXPECT_EQ(Fingerprint(split.train), 18149262101185198574ULL);
  EXPECT_EQ(Fingerprint(split.test), 14067532535232084919ULL);
  const Dataset holdout =
      SplitPerUserHoldout(m.value(), 0.25, 2, 5, "h").value();
  EXPECT_EQ(Fingerprint(holdout.train), 12760096209435316778ULL);
  EXPECT_EQ(Fingerprint(holdout.test), 2257793506452340330ULL);
  const Dataset flipped = Transpose(split);
  EXPECT_EQ(Fingerprint(flipped.train), 15930795386487514569ULL);
  EXPECT_EQ(Fingerprint(flipped.test), 8539906784442851676ULL);
  std::remove(path.c_str());
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

TEST(LoadRatingsFileTest, UnreadableFileIsIOError) {
  // A directory opens, and only the read fails.
  auto m = LoadRatingsFile(::testing::TempDir(), false);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kIOError) << m.status().ToString();
}

TEST(LoadRatingsFileTest, MissingFileIsIOError) {
  auto m = LoadRatingsFile("/nonexistent/no.txt", false);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace nomad
