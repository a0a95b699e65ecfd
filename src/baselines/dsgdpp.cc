#include "baselines/dsgdpp.h"

#include <utility>
#include <vector>

#include "baselines/block_grid.h"
#include "solver/run_recorder.h"
#include "solver/sgd_kernel.h"
#include "util/rng.h"
#include "util/thread_pool.h"

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
  const int cblocks = 2 * p;

  const UserPartition row_part = UserPartition::ByRatings(ds.train, p);
  const UserPartition col_part = UserPartition::ByRows(ds.cols, cblocks);
  const BlockGrid grid = BlockGrid::Build(ds.train, row_part, col_part);

  StepCounts counts(ds.train.nnz());
  BoldDriver driver(options.alpha);
  ThreadPool pool(p);
  EpochLoopT<Real> loop(ds, options, w, h, &result, &pool);
  int epoch = 0;
  while (loop.Continue()) {
    for (int s = 0; s < cblocks; ++s) {
      for (int q = 0; q < p; ++q) {
        // In stratum s the p active column-blocks are the consecutive range
        // {s, ..., s+p-1} (mod 2p): disjoint within the stratum, and every
        // worker covers all 2p blocks across an epoch.
        const int cb = (q + s) % cblocks;
        pool.Submit([&, q, cb, s] {
          Rng rng(options.seed + 131ULL * static_cast<uint64_t>(epoch) +
                  29ULL * static_cast<uint64_t>(q) + static_cast<uint64_t>(s));
          const auto& block = grid.Block(q, cb);
          std::vector<int32_t> order(block.size());
          for (size_t i = 0; i < block.size(); ++i) {
            order[i] = static_cast<int32_t>(i);
          }
          rng.Shuffle(&order);
          for (int32_t idx : order) {
            const BlockEntry& e = block[static_cast<size_t>(idx)];
            if (options.bold_driver) {
              kernel.ApplyWithStep(e.value, driver.step(), w.Row(e.row),
                                   h.Row(e.col));
            } else {
              kernel.Apply(e.value, &counts, e.pos, w.Row(e.row),
                           h.Row(e.col));
            }
          }
        });
      }
      pool.Wait();
    }
    const double obj = loop.EndEpoch(ds.train.nnz(), options.bold_driver);
    if (options.bold_driver) driver.EndEpoch(obj);
    ++epoch;
  }
  StoreTrainedFactors(std::move(w), std::move(h), &result);
  return result;
}

}  // namespace

Result<TrainResult> DsgdppSolver::Train(const Dataset& ds,
                                        const TrainOptions& options) {
  return DispatchPrecision(options.precision, [&](auto zero) {
    return TrainImpl<decltype(zero)>(ds, options, Name());
  });
}

}  // namespace nomad
