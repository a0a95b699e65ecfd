#include "data/sparse_matrix.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace nomad {
namespace {

// Start offsets of each of `n` buckets for the triplets' `key` (n + 1
// entries, the last being the total).
std::vector<int64_t> CountingOffsets(int32_t n,
                                     const std::vector<Rating>& ratings,
                                     int32_t Rating::*key) {
  std::vector<int64_t> offsets(static_cast<size_t>(n) + 1, 0);
  for (const Rating& r : ratings) ++offsets[static_cast<size_t>(r.*key) + 1];
  for (size_t k = 1; k < offsets.size(); ++k) offsets[k] += offsets[k - 1];
  return offsets;
}

}  // namespace

Result<SparseMatrix> SparseMatrix::Build(int32_t rows, int32_t cols,
                                         std::vector<Rating> ratings) {
  if (rows < 0 || cols < 0) {
    return Status::InvalidArgument("negative matrix dimensions");
  }
  for (const Rating& r : ratings) {
    if (r.row < 0 || r.row >= rows || r.col < 0 || r.col >= cols) {
      return Status::InvalidArgument(
          StrFormat("rating (%d, %d) out of range for %dx%d matrix", r.row,
                    r.col, rows, cols));
    }
  }
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  const size_t nnz = ratings.size();
  m.csr_ptr_ = CountingOffsets(rows, ratings, &Rating::row);
  m.csc_ptr_ = CountingOffsets(cols, ratings, &Rating::col);

  // Row-major input (a split, a transpose) is in CSR order already. Any
  // other order takes two stable counting passes, no comparison sort: the
  // triplets by column into the CSC arrays (rows still in input order),
  // then those by row into CSR, so that columns ascend within each row.
  const bool row_major = std::is_sorted(
      ratings.begin(), ratings.end(), [](const Rating& a, const Rating& b) {
        return a.row != b.row ? a.row < b.row : a.col < b.col;
      });
  std::vector<int64_t> next(m.csc_ptr_.begin(), m.csc_ptr_.end() - 1);
  if (row_major) {
    m.csr_col_.resize(nnz);
    m.csr_value_.resize(nnz);
    for (size_t p = 0; p < nnz; ++p) {
      m.csr_col_[p] = ratings[p].col;
      m.csr_value_[p] = ratings[p].value;
    }
  } else {
    m.csc_row_.resize(nnz);
    m.csc_value_.resize(nnz);
    for (const Rating& r : ratings) {
      const size_t q = static_cast<size_t>(next[static_cast<size_t>(r.col)]++);
      m.csc_row_[q] = r.row;
      m.csc_value_[q] = r.value;
    }
  }
  std::vector<Rating>().swap(ratings);  // peak: 20 bytes per rating
  m.csr_col_.resize(nnz);
  m.csr_value_.resize(nnz);
  m.csc_row_.resize(nnz);
  m.csc_value_.resize(nnz);
  if (!row_major) {
    next.assign(m.csr_ptr_.begin(), m.csr_ptr_.end() - 1);
    for (int32_t j = 0; j < cols; ++j) {
      for (int64_t q = m.ColOffset(j); q < m.ColOffset(j + 1); ++q) {
        const int32_t row = m.csc_row_[static_cast<size_t>(q)];
        const size_t p = static_cast<size_t>(next[static_cast<size_t>(row)]++);
        m.csr_col_[p] = j;
        m.csr_value_[p] = m.csc_value_[static_cast<size_t>(q)];
      }
    }
  }
  // Duplicates are neighbours within a row; the first one found is the
  // smallest (row, col).
  for (int32_t i = 0; i < rows; ++i) {
    const int32_t* begin = m.RowCols(i);
    const int32_t* end = begin + m.RowNnz(i);
    const int32_t* dup = std::adjacent_find(begin, end);
    if (dup != end) {
      return Status::InvalidArgument(
          StrFormat("duplicate rating at (%d, %d)", i, *dup));
    }
  }
  // CSC: a stable counting pass by column over CSR, so rows ascend within
  // each column.
  next.assign(m.csc_ptr_.begin(), m.csc_ptr_.end() - 1);
  for (int32_t i = 0; i < rows; ++i) {
    for (int64_t p = m.csr_ptr_[static_cast<size_t>(i)];
         p < m.csr_ptr_[static_cast<size_t>(i) + 1]; ++p) {
      const int32_t col = m.csr_col_[static_cast<size_t>(p)];
      const size_t q = static_cast<size_t>(next[static_cast<size_t>(col)]++);
      m.csc_row_[q] = i;
      m.csc_value_[q] = m.csr_value_[static_cast<size_t>(p)];
    }
  }
  return m;
}

std::vector<Rating> SparseMatrix::ToCoo() const {
  std::vector<Rating> out;
  out.reserve(static_cast<size_t>(nnz()));
  for (int32_t i = 0; i < rows_; ++i) {
    const int32_t n = RowNnz(i);
    const int32_t* cols = RowCols(i);
    const float* vals = RowVals(i);
    for (int32_t p = 0; p < n; ++p) {
      out.push_back(Rating{i, cols[p], vals[p]});
    }
  }
  return out;
}

double SparseMatrix::MeanValue() const {
  if (nnz() == 0) return 0.0;
  double sum = 0.0;
  for (float v : csr_value_) sum += v;
  return sum / static_cast<double>(nnz());
}

}  // namespace nomad
