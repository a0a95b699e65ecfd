#include "data/dataset.h"

#include <utility>

#include "util/logging.h"

namespace nomad {

SparseMatrix TransposeMatrix(const SparseMatrix& m) {
  // Walking the columns gives the transpose's triplets in row-major order,
  // which Build takes without sorting.
  std::vector<Rating> flipped;
  flipped.reserve(static_cast<size_t>(m.nnz()));
  for (int32_t j = 0; j < m.cols(); ++j) {
    const int32_t n = m.ColNnz(j);
    const int32_t* rows = m.ColRows(j);
    const float* vals = m.ColVals(j);
    for (int32_t k = 0; k < n; ++k) {
      flipped.push_back(Rating{j, rows[k], vals[k]});
    }
  }
  auto result = SparseMatrix::Build(m.cols(), m.rows(), std::move(flipped));
  NOMAD_CHECK(result.ok());  // a valid matrix transposes to a valid matrix
  return std::move(result).value();
}

Dataset Transpose(const Dataset& ds) {
  Dataset t;
  t.name = ds.name + "-transposed";
  t.rows = ds.cols;
  t.cols = ds.rows;
  t.train = TransposeMatrix(ds.train);
  t.test = TransposeMatrix(ds.test);
  return t;
}

DatasetStats ComputeStats(const Dataset& ds) {
  DatasetStats s;
  s.name = ds.name;
  s.rows = ds.rows;
  s.cols = ds.cols;
  s.train_nnz = ds.train.nnz();
  s.test_nnz = ds.test.nnz();
  s.ratings_per_item = ds.RatingsPerItem();
  s.ratings_per_user =
      ds.rows == 0 ? 0.0
                   : static_cast<double>(ds.train.nnz()) /
                         static_cast<double>(ds.rows);
  const double total =
      static_cast<double>(ds.rows) * static_cast<double>(ds.cols);
  s.density = total == 0.0 ? 0.0
                           : static_cast<double>(ds.train.nnz()) / total;
  return s;
}

}  // namespace nomad
