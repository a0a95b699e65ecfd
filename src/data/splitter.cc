#include "data/splitter.h"

#include <algorithm>

namespace nomad {

Result<Dataset> SplitTrainTest(const SparseMatrix& all, double test_fraction,
                               uint64_t seed, const std::string& name) {
  if (test_fraction < 0.0 || test_fraction >= 1.0) {
    return Status::InvalidArgument("test_fraction must be in [0, 1)");
  }
  // One draw per rating in row-major (CSR) order, then one walk of the rows
  // into exactly sized train and test lists.
  Rng rng(seed);
  std::vector<uint8_t> to_test(static_cast<size_t>(all.nnz()));
  size_t test_nnz = 0;
  for (uint8_t& t : to_test) {
    t = rng.NextDouble() < test_fraction;
    test_nnz += t;
  }
  std::vector<Rating> train;
  std::vector<Rating> test;
  train.reserve(to_test.size() - test_nnz);
  test.reserve(test_nnz);
  size_t p = 0;
  for (int32_t i = 0; i < all.rows(); ++i) {
    const int32_t n = all.RowNnz(i);
    const int32_t* cols = all.RowCols(i);
    const float* vals = all.RowVals(i);
    for (int32_t k = 0; k < n; ++k) {
      (to_test[p++] ? test : train).push_back(Rating{i, cols[k], vals[k]});
    }
  }
  auto train_m = SparseMatrix::Build(all.rows(), all.cols(), std::move(train));
  if (!train_m.ok()) return train_m.status();
  auto test_m = SparseMatrix::Build(all.rows(), all.cols(), std::move(test));
  if (!test_m.ok()) return test_m.status();
  Dataset ds;
  ds.name = name;
  ds.rows = all.rows();
  ds.cols = all.cols();
  ds.train = std::move(train_m).value();
  ds.test = std::move(test_m).value();
  return ds;
}

Result<Dataset> SplitPerUserHoldout(const SparseMatrix& all,
                                    double test_fraction,
                                    int min_train_per_user, uint64_t seed,
                                    const std::string& name) {
  if (test_fraction < 0.0 || test_fraction >= 1.0) {
    return Status::InvalidArgument("test_fraction must be in [0, 1)");
  }
  if (min_train_per_user < 0) {
    return Status::InvalidArgument("min_train_per_user must be >= 0");
  }
  // How many of row i's ratings go to test.
  auto test_count = [&](int32_t i) {
    const int32_t n = all.RowNnz(i);
    return std::min(static_cast<int>(test_fraction * n),
                    std::max(0, n - min_train_per_user));
  };
  size_t test_nnz = 0;
  for (int32_t i = 0; i < all.rows(); ++i) {
    test_nnz += static_cast<size_t>(test_count(i));
  }
  Rng rng(seed);
  std::vector<Rating> train;
  std::vector<Rating> test;
  train.reserve(static_cast<size_t>(all.nnz()) - test_nnz);
  test.reserve(test_nnz);
  std::vector<int> order;
  for (int32_t i = 0; i < all.rows(); ++i) {
    const int32_t n = all.RowNnz(i);
    const int32_t* cols = all.RowCols(i);
    const float* vals = all.RowVals(i);
    const int want_test = test_count(i);
    // Choose `want_test` random positions of this row for the test set.
    order.resize(static_cast<size_t>(n));
    for (int p = 0; p < n; ++p) order[static_cast<size_t>(p)] = p;
    rng.Shuffle(&order);
    for (int p = 0; p < n; ++p) {
      const int32_t pos = order[static_cast<size_t>(p)];
      const Rating r{i, cols[pos], vals[pos]};
      (p < want_test ? test : train).push_back(r);
    }
  }
  auto train_m = SparseMatrix::Build(all.rows(), all.cols(), std::move(train));
  if (!train_m.ok()) return train_m.status();
  auto test_m = SparseMatrix::Build(all.rows(), all.cols(), std::move(test));
  if (!test_m.ok()) return test_m.status();
  Dataset ds;
  ds.name = name;
  ds.rows = all.rows();
  ds.cols = all.cols();
  ds.train = std::move(train_m).value();
  ds.test = std::move(test_m).value();
  return ds;
}

}  // namespace nomad
