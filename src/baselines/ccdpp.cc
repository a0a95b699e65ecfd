#include "baselines/ccdpp.h"

#include <utility>

#include "baselines/ccd_core.h"
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
  if (options.ccd_inner_iters < 1) {
    return Status::InvalidArgument("ccd_inner_iters must be >= 1");
  }

  TrainResult result;
  result.solver_name = name;
  result.precision = options.precision;
  FactorMatrixT<Real> w;
  FactorMatrixT<Real> h;
  InitFactorsT<Real>(ds, options, &w, &h);

  ThreadPool pool(options.num_workers);
  CcdppEngineT<Real> engine(ds.train, options.lambda, &w, &h, &pool);

  EpochLoopT<Real> loop(ds, options, w, h, &result, &pool);
  while (loop.Continue()) {
    engine.SweepEpoch(options.ccd_inner_iters);
    loop.EndEpoch(engine.EpochWork(options.ccd_inner_iters));
  }
  StoreTrainedFactors(std::move(w), std::move(h), &result);
  return result;
}

}  // namespace

Result<TrainResult> CcdppSolver::Train(const Dataset& ds,
                                       const TrainOptions& options) {
  return DispatchPrecision(options.precision, [&](auto zero) {
    return TrainImpl<decltype(zero)>(ds, options, Name());
  });
}

}  // namespace nomad
