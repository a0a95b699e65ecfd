#include "baselines/serial_sgd.h"

#include <utility>
#include <vector>

#include "solver/run_recorder.h"
#include "solver/sgd_kernel.h"
#include "util/rng.h"

namespace nomad {

namespace {

template <typename Real>
Result<TrainResult> TrainImpl(const Dataset& ds, const TrainOptions& options,
                              const std::string& name) {
  NOMAD_RETURN_IF_ERROR(ValidateCommonOptions(options));
  auto made = MakeUpdateKernel<Real>(options);
  if (!made.ok()) return made.status();
  const UpdateKernelT<Real> kernel = std::move(made).value();

  TrainResult result;
  result.solver_name = name;
  result.precision = options.precision;
  FactorMatrixT<Real> w;
  FactorMatrixT<Real> h;
  InitFactorsT<Real>(ds, options, &w, &h);

  // Flatten training ratings in CSC order so positions key the step counts.
  struct Obs {
    int32_t row;
    int32_t col;
    float value;
  };
  const int64_t nnz = ds.train.nnz();
  std::vector<Obs> obs;
  obs.reserve(static_cast<size_t>(nnz));
  for (int32_t j = 0; j < ds.cols; ++j) {
    const int32_t n = ds.train.ColNnz(j);
    const int32_t* rows = ds.train.ColRows(j);
    const float* vals = ds.train.ColVals(j);
    for (int32_t t = 0; t < n; ++t) {
      obs.push_back(Obs{rows[t], j, vals[t]});
    }
  }
  std::vector<int64_t> order(static_cast<size_t>(nnz));
  for (int64_t i = 0; i < nnz; ++i) order[static_cast<size_t>(i)] = i;

  StepCounts counts(nnz);
  Rng rng(options.seed + 13);
  EpochLoopT<Real> loop(ds, options, w, h, &result);
  while (loop.Continue()) {
    rng.Shuffle(&order);
    for (int64_t pos : order) {
      const Obs& o = obs[static_cast<size_t>(pos)];
      kernel.Apply(o.value, &counts, pos, w.Row(o.row), h.Row(o.col));
    }
    loop.EndEpoch(nnz);
  }
  StoreTrainedFactors(std::move(w), std::move(h), &result);
  return result;
}

}  // namespace

Result<TrainResult> SerialSgdSolver::Train(const Dataset& ds,
                                           const TrainOptions& options) {
  return DispatchPrecision(options.precision, [&](auto zero) {
    return TrainImpl<decltype(zero)>(ds, options, Name());
  });
}

}  // namespace nomad
