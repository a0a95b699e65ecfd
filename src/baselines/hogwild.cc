#include "baselines/hogwild.h"

#include <thread>
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
  const int p = options.num_workers;

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
    for (int32_t t = 0; t < n; ++t) obs.push_back(Obs{rows[t], j, vals[t]});
  }

  // Per-rating step counts are shared without atomics: the data race on a
  // counter merely loses an occasional increment, slightly slowing the
  // schedule decay — consistent with Hogwild's benign-race philosophy.
  StepCounts counts(nnz);

  // An empty training set never enters the loop (nothing to draw from):
  // the loop traces the starting factors once instead.
  EpochLoopT<Real> loop(ds, options, w, h, &result);
  while (loop.Continue()) {
    const int64_t per_worker = (nnz + p - 1) / p;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(p));
    for (int q = 0; q < p; ++q) {
      threads.emplace_back([&, q] {
        Rng rng(options.seed + 1000003ULL * static_cast<uint64_t>(q + 1) +
                static_cast<uint64_t>(loop.epochs_done()));
        for (int64_t u = 0; u < per_worker; ++u) {
          const int64_t pos =
              static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(nnz)));
          const Obs& o = obs[static_cast<size_t>(pos)];
          kernel.Apply(o.value, &counts, pos, w.Row(o.row), h.Row(o.col));
        }
      });
    }
    for (auto& t : threads) t.join();
    loop.EndEpoch(per_worker * p);
  }
  StoreTrainedFactors(std::move(w), std::move(h), &result);
  return result;
}

}  // namespace

Result<TrainResult> HogwildSolver::Train(const Dataset& ds,
                                         const TrainOptions& options) {
  return DispatchPrecision(options.precision, [&](auto zero) {
    return TrainImpl<decltype(zero)>(ds, options, Name());
  });
}

}  // namespace nomad
