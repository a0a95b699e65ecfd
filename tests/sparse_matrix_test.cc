#include "data/sparse_matrix.h"

#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/string_util.h"

namespace nomad {
namespace {

std::vector<Rating> SmallTriplets() {
  return {
      {0, 1, 5.0f}, {0, 2, 3.0f}, {1, 0, 1.0f}, {2, 1, 4.0f}, {2, 2, 2.0f},
  };
}

TEST(SparseMatrixTest, BuildAndDims) {
  auto m = SparseMatrix::Build(3, 3, SmallTriplets());
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.value().rows(), 3);
  EXPECT_EQ(m.value().cols(), 3);
  EXPECT_EQ(m.value().nnz(), 5);
}

TEST(SparseMatrixTest, CsrAccess) {
  auto m = SparseMatrix::Build(3, 3, SmallTriplets()).value();
  EXPECT_EQ(m.RowNnz(0), 2);
  EXPECT_EQ(m.RowNnz(1), 1);
  EXPECT_EQ(m.RowNnz(2), 2);
  EXPECT_EQ(m.RowCols(0)[0], 1);
  EXPECT_EQ(m.RowCols(0)[1], 2);
  EXPECT_FLOAT_EQ(m.RowVals(0)[0], 5.0f);
  EXPECT_FLOAT_EQ(m.RowVals(1)[0], 1.0f);
}

TEST(SparseMatrixTest, CscAccess) {
  auto m = SparseMatrix::Build(3, 3, SmallTriplets()).value();
  EXPECT_EQ(m.ColNnz(0), 1);
  EXPECT_EQ(m.ColNnz(1), 2);
  EXPECT_EQ(m.ColNnz(2), 2);
  EXPECT_EQ(m.ColRows(1)[0], 0);
  EXPECT_EQ(m.ColRows(1)[1], 2);
  EXPECT_FLOAT_EQ(m.ColVals(1)[1], 4.0f);
}

TEST(SparseMatrixTest, ColOffsetsAreCumulative) {
  auto m = SparseMatrix::Build(3, 3, SmallTriplets()).value();
  EXPECT_EQ(m.ColOffset(0), 0);
  EXPECT_EQ(m.ColOffset(1), 1);
  EXPECT_EQ(m.ColOffset(2), 3);
}

TEST(SparseMatrixTest, EmptyMatrix) {
  auto m = SparseMatrix::Build(4, 5, {}).value();
  EXPECT_EQ(m.nnz(), 0);
  for (int32_t i = 0; i < 4; ++i) EXPECT_EQ(m.RowNnz(i), 0);
  for (int32_t j = 0; j < 5; ++j) EXPECT_EQ(m.ColNnz(j), 0);
  EXPECT_DOUBLE_EQ(m.MeanValue(), 0.0);
}

TEST(SparseMatrixTest, EmptyRowsAndColsInMiddle) {
  auto m = SparseMatrix::Build(5, 5, {{0, 0, 1.0f}, {4, 4, 2.0f}}).value();
  EXPECT_EQ(m.RowNnz(2), 0);
  EXPECT_EQ(m.ColNnz(2), 0);
  EXPECT_EQ(m.RowNnz(4), 1);
}

TEST(SparseMatrixTest, RejectsDuplicates) {
  auto m = SparseMatrix::Build(2, 2, {{0, 0, 1.0f}, {0, 0, 2.0f}});
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
}

TEST(SparseMatrixTest, RejectsOutOfRange) {
  EXPECT_FALSE(SparseMatrix::Build(2, 2, {{2, 0, 1.0f}}).ok());
  EXPECT_FALSE(SparseMatrix::Build(2, 2, {{0, 2, 1.0f}}).ok());
  EXPECT_FALSE(SparseMatrix::Build(2, 2, {{-1, 0, 1.0f}}).ok());
}

TEST(SparseMatrixTest, MeanValue) {
  auto m = SparseMatrix::Build(3, 3, SmallTriplets()).value();
  EXPECT_DOUBLE_EQ(m.MeanValue(), 3.0);
}

TEST(SparseMatrixTest, ToCooRoundTrip) {
  const auto triplets = SmallTriplets();
  auto m = SparseMatrix::Build(3, 3, triplets).value();
  auto coo = m.ToCoo();
  ASSERT_EQ(coo.size(), triplets.size());
  // ToCoo is row-major sorted; SmallTriplets already is.
  for (size_t i = 0; i < coo.size(); ++i) EXPECT_EQ(coo[i], triplets[i]);
}

// Property: CSR and CSC views of a random matrix contain exactly the same
// triplets.
class SparseMatrixPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SparseMatrixPropertyTest, CsrCscConsistent) {
  Rng rng(GetParam());
  const int32_t rows = 1 + static_cast<int32_t>(rng.NextBelow(40));
  const int32_t cols = 1 + static_cast<int32_t>(rng.NextBelow(40));
  std::map<std::pair<int32_t, int32_t>, float> want;
  const int attempts = static_cast<int>(rng.NextBelow(200));
  for (int i = 0; i < attempts; ++i) {
    const int32_t r = static_cast<int32_t>(rng.NextBelow(rows));
    const int32_t c = static_cast<int32_t>(rng.NextBelow(cols));
    want[{r, c}] = static_cast<float>(rng.NextDouble());
  }
  std::vector<Rating> triplets;
  for (const auto& [rc, v] : want) {
    triplets.push_back(Rating{rc.first, rc.second, v});
  }
  auto m = SparseMatrix::Build(rows, cols, triplets).value();
  ASSERT_EQ(m.nnz(), static_cast<int64_t>(want.size()));

  // CSR view.
  std::map<std::pair<int32_t, int32_t>, float> via_csr;
  for (int32_t i = 0; i < rows; ++i) {
    for (int32_t p = 0; p < m.RowNnz(i); ++p) {
      via_csr[{i, m.RowCols(i)[p]}] = m.RowVals(i)[p];
    }
  }
  EXPECT_EQ(via_csr, want);

  // CSC view.
  std::map<std::pair<int32_t, int32_t>, float> via_csc;
  for (int32_t j = 0; j < cols; ++j) {
    for (int32_t p = 0; p < m.ColNnz(j); ++p) {
      via_csc[{m.ColRows(j)[p], j}] = m.ColVals(j)[p];
    }
  }
  EXPECT_EQ(via_csc, want);
}

TEST_P(SparseMatrixPropertyTest, RowsWithinColumnsAscend) {
  Rng rng(GetParam() ^ 0xBEEF);
  const int32_t rows = 1 + static_cast<int32_t>(rng.NextBelow(60));
  const int32_t cols = 1 + static_cast<int32_t>(rng.NextBelow(10));
  std::map<std::pair<int32_t, int32_t>, float> want;
  for (int i = 0; i < 150; ++i) {
    want[{static_cast<int32_t>(rng.NextBelow(rows)),
          static_cast<int32_t>(rng.NextBelow(cols))}] = 1.0f;
  }
  std::vector<Rating> triplets;
  for (const auto& [rc, v] : want) {
    triplets.push_back(Rating{rc.first, rc.second, v});
  }
  auto m = SparseMatrix::Build(rows, cols, triplets).value();
  for (int32_t j = 0; j < cols; ++j) {
    for (int32_t p = 1; p < m.ColNnz(j); ++p) {
      EXPECT_LT(m.ColRows(j)[p - 1], m.ColRows(j)[p]);
    }
  }
}

bool RowMajorLess(const Rating& a, const Rating& b) {
  return a.row != b.row ? a.row < b.row : a.col < b.col;
}

// Reference construction: a comparator sort of all triplets, then CSR
// straight from the sorted order and CSC by a stable counting pass.
struct Layouts {
  std::vector<int64_t> csr_ptr, csc_ptr;
  std::vector<int32_t> csr_col, csc_row;
  std::vector<float> csr_val, csc_val;
  bool operator==(const Layouts&) const = default;
};

Layouts SortReference(int32_t rows, int32_t cols, std::vector<Rating> r) {
  std::sort(r.begin(), r.end(), RowMajorLess);
  Layouts l;
  l.csr_ptr.assign(static_cast<size_t>(rows) + 1, 0);
  l.csc_ptr.assign(static_cast<size_t>(cols) + 1, 0);
  for (const Rating& x : r) {
    ++l.csr_ptr[static_cast<size_t>(x.row) + 1];
    ++l.csc_ptr[static_cast<size_t>(x.col) + 1];
    l.csr_col.push_back(x.col);
    l.csr_val.push_back(x.value);
  }
  for (size_t i = 1; i < l.csr_ptr.size(); ++i) l.csr_ptr[i] += l.csr_ptr[i - 1];
  for (size_t j = 1; j < l.csc_ptr.size(); ++j) l.csc_ptr[j] += l.csc_ptr[j - 1];
  l.csc_row.resize(r.size());
  l.csc_val.resize(r.size());
  std::vector<int64_t> next(l.csc_ptr.begin(), l.csc_ptr.end() - 1);
  for (const Rating& x : r) {
    const int64_t p = next[static_cast<size_t>(x.col)]++;
    l.csc_row[static_cast<size_t>(p)] = x.row;
    l.csc_val[static_cast<size_t>(p)] = x.value;
  }
  return l;
}

Layouts LayoutsOf(const SparseMatrix& m) {
  Layouts l;
  l.csr_ptr.push_back(0);
  for (int32_t i = 0; i < m.rows(); ++i) {
    l.csr_ptr.push_back(l.csr_ptr.back() + m.RowNnz(i));
    l.csr_col.insert(l.csr_col.end(), m.RowCols(i), m.RowCols(i) + m.RowNnz(i));
    l.csr_val.insert(l.csr_val.end(), m.RowVals(i), m.RowVals(i) + m.RowNnz(i));
  }
  for (int32_t j = 0; j < m.cols(); ++j) {
    l.csc_ptr.push_back(m.ColOffset(j));
    l.csc_row.insert(l.csc_row.end(), m.ColRows(j), m.ColRows(j) + m.ColNnz(j));
    l.csc_val.insert(l.csc_val.end(), m.ColVals(j), m.ColVals(j) + m.ColNnz(j));
  }
  l.csc_ptr.push_back(m.nnz());
  return l;
}

// Property: Build on shuffled triplets gives the reference arrays exactly,
// with empty rows and columns and one row of more than 1,000 entries; and a
// duplicate pair placed far apart is rejected by its (row, col).
TEST_P(SparseMatrixPropertyTest, BuildMatchesSortReference) {
  Rng rng(GetParam() * 7919);
  const int32_t rows = 50 + static_cast<int32_t>(rng.NextBelow(50));
  const int32_t cols = 1200 + static_cast<int32_t>(rng.NextBelow(300));
  const int32_t heavy = 2 * static_cast<int32_t>(rng.NextBelow(rows / 2));
  std::map<std::pair<int32_t, int32_t>, float> cells;
  for (int32_t c = 0; c < 1100; ++c) cells[{heavy, c}] = 0.5f * c;
  for (int i = 0; i < 800; ++i) {
    // Odd rows and the last column stay empty.
    const int32_t r = 2 * static_cast<int32_t>(rng.NextBelow(rows / 2));
    const int32_t c = static_cast<int32_t>(rng.NextBelow(cols - 1));
    cells[{r, c}] = static_cast<float>(rng.Uniform(-5, 5));
  }
  std::vector<Rating> triplets;
  for (const auto& [rc, v] : cells) {
    triplets.push_back(Rating{rc.first, rc.second, v});
  }
  rng.Shuffle(&triplets);

  auto m = SparseMatrix::Build(rows, cols, triplets);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_GT(m.value().RowNnz(heavy), 1000);
  EXPECT_EQ(m.value().RowNnz(1), 0);
  EXPECT_EQ(m.value().ColNnz(cols - 1), 0);
  const Layouts want = SortReference(rows, cols, triplets);
  EXPECT_TRUE(LayoutsOf(m.value()) == want);
  // Rows in order with columns shuffled within them, then row-major input
  // (which Build takes as CSR directly).
  std::vector<Rating> ordered = triplets;
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Rating& a, const Rating& b) { return a.row < b.row; });
  EXPECT_TRUE(LayoutsOf(SparseMatrix::Build(rows, cols, ordered).value()) ==
              want);
  std::sort(ordered.begin(), ordered.end(), RowMajorLess);
  EXPECT_TRUE(LayoutsOf(SparseMatrix::Build(rows, cols, ordered).value()) ==
              want);

  // The copy of the first triplet goes last.
  const Rating dup = triplets.front();
  triplets.push_back(Rating{dup.row, dup.col, dup.value + 1.0f});
  auto rejected = SparseMatrix::Build(rows, cols, triplets);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(rejected.status().message(),
            StrFormat("duplicate rating at (%d, %d)", dup.row, dup.col));
  // The same duplicate in row-major input, where the pair are neighbours.
  std::stable_sort(triplets.begin(), triplets.end(), RowMajorLess);
  rejected = SparseMatrix::Build(rows, cols, triplets);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().message(),
            StrFormat("duplicate rating at (%d, %d)", dup.row, dup.col));
}

INSTANTIATE_TEST_SUITE_P(RandomMatrices, SparseMatrixPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace nomad
