#ifndef NOMAD_BASELINES_STRATIFIED_SGD_H_
#define NOMAD_BASELINES_STRATIFIED_SGD_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "baselines/block_grid.h"
#include "sched/schedule.h"
#include "solver/sgd_kernel.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace nomad {

/// The stratified SGD of DSGD (p×p blocks) and DSGD++ (p×2p blocks),
/// shared by the threaded baselines (DsgdSolver, DsgdppSolver) and their
/// cluster simulators (SimDsgdSolver, SimDsgdppSolver).
///
/// An epoch is `col_blocks` strata. In stratum s of epoch e, row block q
/// processes column block (q + s + e) mod col_blocks, so the active blocks
/// share no row or column and may run in parallel. Each block is visited
/// in a fresh order shuffled from seed + 31·e + 17·q + cb, and every
/// update takes the bold-driver step (options.bold_driver) or the
/// per-rating schedule step. Neither the order nor the steps depend on
/// which thread runs a block, so a pool run and a serial (null pool) run
/// follow the same trajectory bit for bit.
template <typename Real>
class StratifiedSgdT {
 public:
  /// `w` and `h` must outlive the engine and already be initialized.
  /// `col_blocks` must be at least `row_blocks`; the pool, if any, runs
  /// one task per row block.
  StratifiedSgdT(const SparseMatrix& train, int row_blocks, int col_blocks,
                 UpdateKernelT<Real> kernel, const TrainOptions& options,
                 FactorMatrixT<Real>* w, FactorMatrixT<Real>* h,
                 ThreadPool* pool)
      : grid_(BlockGrid::Build(train,
                               UserPartition::ByRatings(train, row_blocks),
                               UserPartition::ByRows(train.cols(),
                                                     col_blocks))),
        kernel_(std::move(kernel)),
        counts_(train.nnz()),
        driver_(options.alpha),
        bold_driver_(options.bold_driver),
        seed_(options.seed),
        w_(w),
        h_(h),
        pool_(pool) {}

  /// The block row block `rb` processes in stratum `s` of the current
  /// epoch.
  const std::vector<BlockEntry>& ActiveBlock(int s, int rb) const {
    return grid_.Block(rb, ColBlock(s, rb));
  }

  /// Runs the current epoch's strata, with a barrier after each.
  void SweepEpoch() {
    for (int s = 0; s < grid_.col_blocks(); ++s) {
      ParallelFor(pool_, 0, grid_.row_blocks(),
                  [&](int64_t rb) { RunBlock(s, static_cast<int>(rb)); });
    }
  }

  /// Closes the epoch: feeds the training objective to the bold driver
  /// (ignored without one) and advances the stratum rotation.
  void EndEpoch(double objective) {
    if (bold_driver_) driver_.EndEpoch(objective);
    ++epoch_;
  }

 private:
  int ColBlock(int s, int rb) const {
    return (rb + s + epoch_) % grid_.col_blocks();
  }

  void RunBlock(int s, int rb) {
    const std::vector<BlockEntry>& block = ActiveBlock(s, rb);
    std::vector<int32_t> order(block.size());
    for (size_t i = 0; i < block.size(); ++i) {
      order[i] = static_cast<int32_t>(i);
    }
    Rng rng(seed_ + 31ULL * static_cast<uint64_t>(epoch_) +
            17ULL * static_cast<uint64_t>(rb) +
            static_cast<uint64_t>(ColBlock(s, rb)));
    rng.Shuffle(&order);
    for (int32_t idx : order) {
      const BlockEntry& e = block[static_cast<size_t>(idx)];
      if (bold_driver_) {
        kernel_.ApplyWithStep(e.value, driver_.step(), w_->Row(e.row),
                              h_->Row(e.col));
      } else {
        kernel_.Apply(e.value, &counts_, e.pos, w_->Row(e.row),
                      h_->Row(e.col));
      }
    }
  }

  const BlockGrid grid_;
  const UpdateKernelT<Real> kernel_;
  StepCounts counts_;
  BoldDriver driver_;
  const bool bold_driver_;
  const uint64_t seed_;
  FactorMatrixT<Real>* w_;
  FactorMatrixT<Real>* h_;
  ThreadPool* pool_;  // may be null (serial)
  int epoch_ = 0;
};

}  // namespace nomad

#endif  // NOMAD_BASELINES_STRATIFIED_SGD_H_
