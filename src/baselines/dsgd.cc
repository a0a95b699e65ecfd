#include "baselines/dsgd.h"

#include <utility>

#include "baselines/stratified_sgd.h"
#include "solver/run_recorder.h"
#include "util/thread_pool.h"

namespace nomad {

namespace {

/// DSGD (`blocks_per_worker` = 1) and DSGD++ (2): p row blocks by
/// p·blocks_per_worker column blocks over a pool of p threads.
template <typename Real>
Result<TrainResult> TrainImpl(const Dataset& ds, const TrainOptions& options,
                              const std::string& name, int blocks_per_worker) {
  NOMAD_RETURN_IF_ERROR(ValidateCommonOptions(options));
  auto kernel = MakeUpdateKernel<Real>(options);
  if (!kernel.ok()) return kernel.status();

  TrainResult result;
  result.solver_name = name;
  result.precision = options.precision;
  FactorMatrixT<Real> w;
  FactorMatrixT<Real> h;
  InitFactorsT<Real>(ds, options, &w, &h);
  const int p = options.num_workers;
  ThreadPool pool(p);
  StratifiedSgdT<Real> engine(ds.train, p, blocks_per_worker * p,
                              std::move(kernel).value(), options, &w, &h,
                              &pool);
  EpochLoopT<Real> loop(ds, options, w, h, &result, &pool);
  while (loop.Continue()) {
    engine.SweepEpoch();
    engine.EndEpoch(loop.EndEpoch(ds.train.nnz(), options.bold_driver));
  }
  StoreTrainedFactors(std::move(w), std::move(h), &result);
  return result;
}

}  // namespace

Result<TrainResult> DsgdSolver::Train(const Dataset& ds,
                                      const TrainOptions& options) {
  return DispatchPrecision(options.precision, [&](auto zero) {
    return TrainImpl<decltype(zero)>(ds, options, Name(), 1);
  });
}

Result<TrainResult> DsgdppSolver::Train(const Dataset& ds,
                                        const TrainOptions& options) {
  return DispatchPrecision(options.precision, [&](auto zero) {
    return TrainImpl<decltype(zero)>(ds, options, Name(), 2);
  });
}

}  // namespace nomad
