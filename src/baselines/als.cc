#include "baselines/als.h"

#include <utility>

#include "solver/run_recorder.h"

namespace nomad {

template <typename Real>
AlsEngineT<Real>::AlsEngineT(const SparseMatrix& train, double lambda,
                             FactorMatrixT<Real>* w, FactorMatrixT<Real>* h,
                             ThreadPool* pool)
    : train_(train), lambda_(lambda), w_(w), h_(h), pool_(pool) {
  const int shards = pool == nullptr ? 1 : pool->num_threads();
  for (int q = 0; q < shards; ++q) {
    scratch_.push_back(std::make_unique<NormalEquations>(w->cols()));
  }
}

template <typename Real>
void AlsEngineT<Real>::SweepEpoch() {
  // Solves every row of `out` against the `fixed` rows its line of the
  // rating matrix touches: by rows (CSR) for W, by columns (CSC) for H.
  const auto half_sweep = [&](bool by_row, const FactorMatrixT<Real>& fixed,
                              FactorMatrixT<Real>* out) {
    const int64_t lines = by_row ? train_.rows() : train_.cols();
    ParallelForShards(pool_, 0, lines, [&](int shard, int64_t begin,
                                           int64_t end) {
      NormalEquations& ne = *scratch_[static_cast<size_t>(shard)];
      for (int64_t i = begin; i < end; ++i) {
        const int32_t line = static_cast<int32_t>(i);
        const int32_t n = by_row ? train_.RowNnz(line) : train_.ColNnz(line);
        if (n == 0) continue;
        const int32_t* idx =
            by_row ? train_.RowCols(line) : train_.ColRows(line);
        const float* vals =
            by_row ? train_.RowVals(line) : train_.ColVals(line);
        ne.Reset();
        for (int32_t t = 0; t < n; ++t) ne.Add(fixed.Row(idx[t]), vals[t]);
        ne.Solve(lambda_ * n, out->Row(line));
      }
    });
  };
  half_sweep(/*by_row=*/true, *h_, w_);   // all w_i with H fixed
  half_sweep(/*by_row=*/false, *w_, h_);  // all h_j with W fixed
}

template class AlsEngineT<float>;
template class AlsEngineT<double>;

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

  ThreadPool pool(options.num_workers);
  AlsEngineT<Real> engine(ds.train, options.lambda, &w, &h, &pool);
  EpochLoopT<Real> loop(ds, options, w, h, &result, &pool);
  while (loop.Continue()) {
    engine.SweepEpoch();
    // Work accounting: one least-squares "update" per row and per column.
    loop.EndEpoch(ds.train.rows() + ds.train.cols());
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
