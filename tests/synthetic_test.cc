#include "data/synthetic.h"

#include <gtest/gtest.h>

namespace nomad {
namespace {

TEST(SyntheticTest, GeneratesRequestedShape) {
  SyntheticConfig c;
  c.rows = 500;
  c.cols = 50;
  c.nnz = 5000;
  c.seed = 1;
  auto ds = GenerateSynthetic(c).value();
  EXPECT_EQ(ds.rows, 500);
  EXPECT_EQ(ds.cols, 50);
  // Realized nnz can be slightly below the target (within-user duplicate
  // positions are dropped) but must be in the right ballpark.
  const int64_t total = ds.train.nnz() + ds.test.nnz();
  // Dense target (nnz = 2·rows per user on 50 items) loses some duplicate
  // positions; at least 70% must be realized and never more than asked.
  EXPECT_GT(total, 3500);
  EXPECT_LE(total, 5000);
}

TEST(SyntheticTest, DeterministicInSeed) {
  SyntheticConfig c;
  c.rows = 200;
  c.cols = 30;
  c.nnz = 2000;
  auto a = GenerateSynthetic(c).value();
  auto b = GenerateSynthetic(c).value();
  EXPECT_EQ(a.train.ToCoo(), b.train.ToCoo());
  EXPECT_EQ(a.test.ToCoo(), b.test.ToCoo());
  c.seed += 1;
  auto d = GenerateSynthetic(c).value();
  EXPECT_FALSE(a.train.nnz() == d.train.nnz() &&
               a.train.ToCoo() == d.train.ToCoo());
}

TEST(SyntheticTest, ValuesAreLowRankPlusNoise) {
  SyntheticConfig c;
  c.rows = 300;
  c.cols = 40;
  c.nnz = 4000;
  c.noise_std = 0.1;
  c.true_rank = 8;
  auto ds = GenerateSynthetic(c).value();
  // With O(1) planted factors, |rating| should be bounded by a few sigma.
  double max_abs = 0;
  for (const Rating& r : ds.train.ToCoo()) {
    max_abs = std::max(max_abs, std::abs(static_cast<double>(r.value)));
  }
  EXPECT_LT(max_abs, 8.0);
  EXPECT_GT(max_abs, 0.2);  // not all zeros
}

TEST(SyntheticTest, RejectsBadConfig) {
  SyntheticConfig c;
  c.rows = 0;
  EXPECT_FALSE(GenerateSynthetic(c).ok());
  c.rows = 10;
  c.cols = 10;
  c.nnz = 1000;  // > rows*cols
  EXPECT_FALSE(GenerateSynthetic(c).ok());
  c.nnz = 10;
  c.true_rank = 0;
  EXPECT_FALSE(GenerateSynthetic(c).ok());
}

TEST(SyntheticTest, MiniConfigsPreserveRelativeRatingsPerItem) {
  const auto netflix = NetflixMiniConfig();
  const auto yahoo = YahooMiniConfig();
  const auto hugewiki = HugewikiMiniConfig();
  const double rpi_netflix =
      static_cast<double>(netflix.nnz) / netflix.cols;
  const double rpi_yahoo = static_cast<double>(yahoo.nnz) / yahoo.cols;
  const double rpi_hugewiki =
      static_cast<double>(hugewiki.nnz) / hugewiki.cols;
  // Paper Table 2 ordering: Hugewiki >> Netflix >> Yahoo.
  EXPECT_GT(rpi_hugewiki, rpi_netflix);
  EXPECT_GT(rpi_netflix, rpi_yahoo);
  // Netflix:Yahoo ratio ≈ 13.8 in the paper; we preserve it within 2x.
  EXPECT_NEAR(rpi_netflix / rpi_yahoo, 13.8, 7.0);
}

TEST(SyntheticTest, ScaleParameterScalesEverything) {
  const auto base = YahooMiniConfig(1.0);
  const auto half = YahooMiniConfig(0.5);
  EXPECT_NEAR(static_cast<double>(half.rows) / base.rows, 0.5, 0.01);
  EXPECT_NEAR(static_cast<double>(half.cols) / base.cols, 0.5, 0.01);
  // ratings-per-item preserved under scaling.
  EXPECT_NEAR(static_cast<double>(half.nnz) / half.cols,
              static_cast<double>(base.nnz) / base.cols, 1.0);
}

TEST(SyntheticTest, WeakScalingGrowsUsersNotItems) {
  const auto m4 = WeakScalingConfig(4, 0.1);
  const auto m16 = WeakScalingConfig(16, 0.1);
  EXPECT_EQ(m4.cols, m16.cols);
  EXPECT_NEAR(static_cast<double>(m16.rows) / m4.rows, 4.0, 0.1);
  EXPECT_NEAR(static_cast<double>(m16.nnz) / m4.nnz, 4.0, 0.1);
}

TEST(SyntheticTest, MiniDatasetsGenerate) {
  // Tiny scale so the test is fast; exercises all three presets end-to-end.
  for (const auto& config : {NetflixMiniConfig(0.05), YahooMiniConfig(0.05),
                             HugewikiMiniConfig(0.05)}) {
    auto ds = GenerateSynthetic(config);
    ASSERT_TRUE(ds.ok()) << config.name;
    EXPECT_GT(ds.value().train.nnz(), 0) << config.name;
    EXPECT_GT(ds.value().test.nnz(), 0) << config.name;
  }
}

TEST(SyntheticTest, MiniConfigByNameKnowsThePresets) {
  EXPECT_EQ(MiniConfigByName("netflix", 0.5).value().rows,
            NetflixMiniConfig(0.5).rows);
  EXPECT_EQ(MiniConfigByName("yahoo").value().cols, YahooMiniConfig().cols);
  EXPECT_EQ(MiniConfigByName("hugewiki").value().nnz,
            HugewikiMiniConfig().nnz);
  const auto unknown = MiniConfigByName("nosuch");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown.status().message().find("netflix, yahoo, hugewiki"),
            std::string::npos);
}

TEST(SyntheticTest, StatsMatchTable2Constants) {
  ASSERT_EQ(std::size(kPaperTable2), 3u);
  EXPECT_EQ(kPaperTable2[0].nnz, 99072112);
  EXPECT_EQ(kPaperTable2[1].cols, 624961);
  EXPECT_EQ(kPaperTable2[2].rows, 50082603);
}

}  // namespace
}  // namespace nomad
