#include "solver/model.h"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "nomad/nomad_solver.h"
#include "test_util.h"

namespace nomad {
namespace {

Model SmallModel() {
  Model m;
  m.w = FactorMatrix(3, 2);
  m.h = FactorMatrix(4, 2);
  // User 0 = (1, 0), user 1 = (0, 1), user 2 = (1, 1).
  m.w.At(0, 0) = 1;
  m.w.At(1, 1) = 1;
  m.w.At(2, 0) = 1;
  m.w.At(2, 1) = 1;
  // Items scored so user 0's ranking is 3 > 2 > 1 > 0.
  for (int32_t j = 0; j < 4; ++j) {
    m.h.At(j, 0) = j;
    m.h.At(j, 1) = -j;
  }
  return m;
}

TEST(ModelTest, Predict) {
  const Model m = SmallModel();
  EXPECT_DOUBLE_EQ(m.Predict(0, 3), 3.0);
  EXPECT_DOUBLE_EQ(m.Predict(1, 3), -3.0);
  EXPECT_DOUBLE_EQ(m.Predict(2, 2), 0.0);
}

TEST(TopNTest, RanksAndTruncates) {
  const Model m = SmallModel();
  const auto top2 = TopN(m, 0, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0], (ScoredItem{3, 3.0}));
  EXPECT_EQ(top2[1], (ScoredItem{2, 2.0}));
}

TEST(TopNTest, ExcludesSeenItems) {
  const Model m = SmallModel();
  const auto top = TopN(m, 0, 2, /*exclude=*/{3});
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].item, 2);
  EXPECT_EQ(top[1].item, 1);
}

TEST(TopNTest, NLargerThanCatalog) {
  const Model m = SmallModel();
  const auto top = TopN(m, 0, 100);
  EXPECT_EQ(top.size(), 4u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].score, top[i].score);
  }
}

TEST(TopNTest, TiesBreakTowardLowerItemId) {
  Model m;
  m.w = FactorMatrix(1, 1);
  m.h = FactorMatrix(5, 1);
  m.w.At(0, 0) = 1.0;  // all items score 0 except item 4
  m.h.At(4, 0) = -1.0;
  const auto top = TopN(m, 0, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].item, 0);
  EXPECT_EQ(top[1].item, 1);
  EXPECT_EQ(top[2].item, 2);
}

TEST(ModelPersistenceTest, RoundTripsBitExact) {
  const Dataset ds = MakeTestDataset(100, 20, 1000, 81);
  NomadSolver solver;
  auto result = solver.Train(ds, FastTrainOptions(3)).value();
  Model model{std::move(result.w), std::move(result.h)};
  const std::string path = ::testing::TempDir() + "/model.nomad";
  ASSERT_TRUE(SaveModel(model, path).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().rank(), model.rank());
  EXPECT_EQ(loaded.value().w.MaxAbsDiff(model.w), 0.0);
  EXPECT_EQ(loaded.value().h.MaxAbsDiff(model.h), 0.0);
}

TEST(ModelPersistenceTest, RejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/not_a_model.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("not a model at all, just filler bytes for the header read",
             f);
  std::fclose(f);
  EXPECT_FALSE(LoadModel(path).ok());
  EXPECT_FALSE(LoadModel("/does/not/exist").ok());
}

// A write that never reaches the device must not report success: on
// /dev/full every byte stays in the stdio buffer until the flush fails.
TEST(ModelPersistenceTest, ReportsAWriteTheDeviceRefused) {
  struct stat st {};
  if (stat("/dev/full", &st) != 0 || !S_ISCHR(st.st_mode)) {
    GTEST_SKIP() << "/dev/full is not available";
  }
  const Status s = SaveModel(SmallModel(), "/dev/full");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
}

// A header whose sizes exceed the file must be rejected before anything is
// allocated from them: 2^40 users would otherwise abort with bad_alloc.
TEST(ModelPersistenceTest, RejectsHeaderSizesBeyondTheFile) {
  struct Header {
    uint64_t magic;
    int64_t users;
    int64_t items;
    int32_t rank;
    int32_t reserved;
  };
  const auto write_model = [](const std::string& path, const Header& h,
                              size_t payload_bytes) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(&h, sizeof(h), 1, f), 1u);
    const std::vector<char> zeros(payload_bytes, 0);
    ASSERT_EQ(std::fwrite(zeros.data(), 1, zeros.size(), f), zeros.size());
    std::fclose(f);
  };
  const uint64_t magic = 0x4e4f4d4144573101ULL;
  const std::string path = ::testing::TempDir() + "/huge_header.nomad";
  const std::vector<Header> headers = {
      {magic, int64_t{1} << 40, 1, 8, 0},               // 96-byte file
      {magic, INT64_MAX, INT64_MAX, INT32_MAX, 0},      // sizes overflow
      {magic, 2, 1, 8, 0},                              // one row short
  };
  for (const Header& h : headers) {
    write_model(path, h, 64);
    const auto loaded = LoadModel(path);
    ASSERT_FALSE(loaded.ok()) << h.users;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << loaded.status().ToString();
  }
  write_model(path, Header{magic, 3, 1, 2, 0}, 64);  // exactly 4 rows x 2
  const auto exact = LoadModel(path);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_EQ(exact.value().users(), 3);
  EXPECT_EQ(exact.value().items(), 1);
}

TEST(MaeTest, HandComputed) {
  const Model m = SmallModel();
  // Ratings: (0,3)=5 (pred 3, err 2), (1,0)=1 (pred 0, err 1).
  auto ratings =
      SparseMatrix::Build(3, 4, {{0, 3, 5.0f}, {1, 0, 1.0f}}).value();
  EXPECT_DOUBLE_EQ(Mae(ratings, m), 1.5);
  auto empty = SparseMatrix::Build(3, 4, {}).value();
  EXPECT_DOUBLE_EQ(Mae(empty, m), 0.0);
}

TEST(SignAccuracyTest, CountsMatchingSigns) {
  const Model m = SmallModel();
  // (0,3): pred +3 vs +1 ✓; (1,3): pred -3 vs +1 ✗; (1,2): pred -2 vs -1 ✓.
  auto ratings = SparseMatrix::Build(
                     3, 4, {{0, 3, 1.0f}, {1, 3, 1.0f}, {1, 2, -1.0f}})
                     .value();
  EXPECT_NEAR(SignAccuracy(ratings, m), 2.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace nomad
