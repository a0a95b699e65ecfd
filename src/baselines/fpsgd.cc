#include "baselines/fpsgd.h"

#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/block_grid.h"
#include "solver/run_recorder.h"
#include "solver/sgd_kernel.h"
#include "util/rng.h"

namespace nomad {

namespace {

/// The FPSGD task manager: tracks which row/column ranges are busy and
/// which blocks remain this epoch, and hands out free blocks preferring
/// the globally least-processed ones.
class TaskManager {
 public:
  TaskManager(int grid, uint64_t seed) : grid_(grid), rng_(seed) {
    lifetime_count_.assign(static_cast<size_t>(grid) * grid, 0);
  }

  void StartEpoch() {
    std::lock_guard<std::mutex> lock(mu_);
    remaining_.assign(static_cast<size_t>(grid_) * grid_, true);
    remaining_count_ = grid_ * grid_;
    row_busy_.assign(static_cast<size_t>(grid_), false);
    col_busy_.assign(static_cast<size_t>(grid_), false);
  }

  /// Blocks until a free block is available or the epoch is exhausted.
  /// Returns false when the epoch is done.
  bool Acquire(int* rb, int* cb) {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (remaining_count_ == 0) return false;
      int best_rb = -1;
      int best_cb = -1;
      int64_t best_count = 0;
      int ties = 0;
      for (int r = 0; r < grid_; ++r) {
        if (row_busy_[static_cast<size_t>(r)]) continue;
        for (int c = 0; c < grid_; ++c) {
          if (col_busy_[static_cast<size_t>(c)]) continue;
          const size_t idx =
              static_cast<size_t>(r) * static_cast<size_t>(grid_) +
              static_cast<size_t>(c);
          if (!remaining_[idx]) continue;
          const int64_t count = lifetime_count_[idx];
          if (best_rb < 0 || count < best_count) {
            best_rb = r;
            best_cb = c;
            best_count = count;
            ties = 1;
          } else if (count == best_count) {
            // Reservoir-sample among equally-processed blocks.
            ++ties;
            if (rng_.NextBelow(static_cast<uint64_t>(ties)) == 0) {
              best_rb = r;
              best_cb = c;
            }
          }
        }
      }
      if (best_rb >= 0) {
        const size_t idx =
            static_cast<size_t>(best_rb) * static_cast<size_t>(grid_) +
            static_cast<size_t>(best_cb);
        remaining_[idx] = false;
        --remaining_count_;
        row_busy_[static_cast<size_t>(best_rb)] = true;
        col_busy_[static_cast<size_t>(best_cb)] = true;
        ++lifetime_count_[idx];
        *rb = best_rb;
        *cb = best_cb;
        return true;
      }
      // All candidate blocks conflict with running ones; wait for a release.
      changed_.wait(lock);
    }
  }

  void Release(int rb, int cb) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      row_busy_[static_cast<size_t>(rb)] = false;
      col_busy_[static_cast<size_t>(cb)] = false;
    }
    changed_.notify_all();
  }

 private:
  const int grid_;
  Rng rng_;
  std::mutex mu_;
  std::condition_variable changed_;
  std::vector<bool> remaining_;
  std::vector<bool> row_busy_;
  std::vector<bool> col_busy_;
  std::vector<int64_t> lifetime_count_;
  int remaining_count_ = 0;
};

template <typename Real>
Result<TrainResult> TrainImpl(const Dataset& ds, const TrainOptions& options,
                              const std::string& name) {
  NOMAD_RETURN_IF_ERROR(ValidateCommonOptions(options));
  if (options.fpsgd_grid_factor < 1) {
    return Status::InvalidArgument("fpsgd_grid_factor must be >= 1");
  }
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
  const int grid = options.fpsgd_grid_factor * p + 1;

  const UserPartition row_part = UserPartition::ByRatings(ds.train, grid);
  const UserPartition col_part = UserPartition::ByRows(ds.cols, grid);
  const BlockGrid blocks = BlockGrid::Build(ds.train, row_part, col_part);

  StepCounts counts(ds.train.nnz());
  TaskManager manager(grid, options.seed ^ 0xF9F9F9F9ULL);
  EpochLoopT<Real> loop(ds, options, w, h, &result);
  int epoch = 0;
  while (loop.Continue()) {
    manager.StartEpoch();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(p));
    for (int q = 0; q < p; ++q) {
      threads.emplace_back([&, q] {
        Rng rng(options.seed + 4241ULL * static_cast<uint64_t>(q + 1) +
                static_cast<uint64_t>(epoch));
        int rb = 0;
        int cb = 0;
        std::vector<int32_t> order;
        while (manager.Acquire(&rb, &cb)) {
          const auto& block = blocks.Block(rb, cb);
          order.resize(block.size());
          for (size_t i = 0; i < block.size(); ++i) {
            order[i] = static_cast<int32_t>(i);
          }
          rng.Shuffle(&order);
          for (int32_t idx : order) {
            const BlockEntry& e = block[static_cast<size_t>(idx)];
            kernel.Apply(e.value, &counts, e.pos, w.Row(e.row), h.Row(e.col));
          }
          manager.Release(rb, cb);
        }
      });
    }
    for (auto& t : threads) t.join();
    loop.EndEpoch(ds.train.nnz());
    ++epoch;
  }
  StoreTrainedFactors(std::move(w), std::move(h), &result);
  return result;
}

}  // namespace

Result<TrainResult> FpsgdSolver::Train(const Dataset& ds,
                                       const TrainOptions& options) {
  return DispatchPrecision(options.precision, [&](auto zero) {
    return TrainImpl<decltype(zero)>(ds, options, Name());
  });
}

}  // namespace nomad
