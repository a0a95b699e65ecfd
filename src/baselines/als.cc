#include "baselines/als.h"

#include <memory>
#include <utility>
#include <vector>

#include "linalg/cholesky.h"
#include "solver/run_recorder.h"
#include "util/thread_pool.h"

namespace nomad {

namespace {

template <typename Real>
Result<TrainResult> TrainImpl(const Dataset& ds, const TrainOptions& options,
                              const std::string& name) {
  NOMAD_RETURN_IF_ERROR(ValidateCommonOptions(options));
  if (options.loss != "squared" && !options.loss.empty()) {
    return Status::InvalidArgument(name + " supports only the squared loss");
  }

  TrainResult result;
  result.solver_name = name;
  result.precision = options.precision;
  FactorMatrixT<Real> w;
  FactorMatrixT<Real> h;
  InitFactorsT<Real>(ds, options, &w, &h);
  const int k = options.rank;
  const double lambda = options.lambda;
  const SparseMatrix& train = ds.train;

  ThreadPool pool(options.num_workers);
  // One normal-equation accumulator per pool shard to avoid re-allocation.
  // The accumulators and the Cholesky solve stay double even for float
  // factors (see NormalEquations); only the stored rows are Real.
  std::vector<std::unique_ptr<NormalEquations>> scratch;
  for (int q = 0; q < options.num_workers; ++q) {
    scratch.push_back(std::make_unique<NormalEquations>(k));
  }

  EpochLoopT<Real> loop(ds, options, w, h, &result, &pool);
  while (loop.Continue()) {
    // Update all w_i with H fixed.
    ParallelForShards(&pool, 0, train.rows(),
                      [&](int shard, int64_t begin, int64_t end) {
                        NormalEquations& ne = *scratch[static_cast<size_t>(shard)];
                        for (int64_t i = begin; i < end; ++i) {
                          const int32_t row = static_cast<int32_t>(i);
                          const int32_t n = train.RowNnz(row);
                          if (n == 0) continue;
                          const int32_t* cols = train.RowCols(row);
                          const float* vals = train.RowVals(row);
                          ne.Reset();
                          for (int32_t t = 0; t < n; ++t) {
                            ne.Add(h.Row(cols[t]), vals[t]);
                          }
                          ne.Solve(lambda * n, w.Row(row));
                        }
                      });
    // Update all h_j with W fixed.
    ParallelForShards(&pool, 0, train.cols(),
                      [&](int shard, int64_t begin, int64_t end) {
                        NormalEquations& ne = *scratch[static_cast<size_t>(shard)];
                        for (int64_t j = begin; j < end; ++j) {
                          const int32_t col = static_cast<int32_t>(j);
                          const int32_t n = train.ColNnz(col);
                          if (n == 0) continue;
                          const int32_t* rows = train.ColRows(col);
                          const float* vals = train.ColVals(col);
                          ne.Reset();
                          for (int32_t t = 0; t < n; ++t) {
                            ne.Add(w.Row(rows[t]), vals[t]);
                          }
                          ne.Solve(lambda * n, h.Row(col));
                        }
                      });
    // Work accounting: one least-squares "update" per row and per column.
    loop.EndEpoch(train.rows() + train.cols());
  }
  StoreTrainedFactors(std::move(w), std::move(h), &result);
  return result;
}

}  // namespace

Result<TrainResult> AlsSolver::Train(const Dataset& ds,
                                     const TrainOptions& options) {
  return DispatchPrecision(options.precision, [&](auto zero) {
    return TrainImpl<decltype(zero)>(ds, options, Name());
  });
}

}  // namespace nomad
