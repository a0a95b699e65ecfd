#ifndef NOMAD_SOLVER_RUN_RECORDER_H_
#define NOMAD_SOLVER_RUN_RECORDER_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "eval/metrics.h"
#include "obs/timeseries.h"
#include "solver/solver.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace nomad {

/// How a training run is recorded and when it stops: the one recording
/// path every driver shares (NomadSolver, the distributed RankRun,
/// sim_nomad, and the epoch loops below).
///
/// The recorder
///  - records into the caller's `TrainOptions::timeline`, or a private one
///    over `registry`, and owns that timeline's sampler: started here when
///    `metrics_sample_ms > 0` and a registry is given, stopped by Finish();
///  - evaluates trace points (test RMSE, plus the objective when
///    `record_objective` is set or the caller needs it) on an optional
///    pool;
///  - writes every point to both `TrainResult::trace` and the timeline;
///  - derives the update budget from `max_updates` / `max_epochs`;
///  - traces the starting factors once when the problem is empty (no
///    ratings or no items), where no stopping criterion could ever fire;
///  - copies the timeline into the result once, at Finish().
class RunRecorder {
 public:
  /// `result` receives trace points as they are recorded and the timeline
  /// at Finish(); it and `options` must outlive the recorder. `registry`
  /// (nullable) backs a private timeline and the sampler: the virtual-time
  /// simulators pass null, so their rows carry trace fields only and no
  /// sampler runs. With `caller_timeline` false the recorder ignores
  /// `options.timeline` (distributed ranks other than 0).
  RunRecorder(const Dataset& ds, const TrainOptions& options,
              TrainResult* result, obs::MetricsRegistry* registry,
              bool caller_timeline = true);

  /// Stops the sampler if Finish() was not reached.
  ~RunRecorder();

  RunRecorder(const RunRecorder&) = delete;
  RunRecorder& operator=(const RunRecorder&) = delete;

  /// True when the training set has no ratings or no items.
  bool empty_problem() const { return empty_; }

  /// Single-rating updates the run may perform: `max_updates` when set,
  /// else `max_epochs` passes over the training ratings; -1 = unbounded.
  int64_t update_budget() const { return update_budget_; }

  /// True once a stopping criterion fires at `updates` done after
  /// `seconds` of training. Epoch drivers pass the epochs they completed
  /// and stop on `max_epochs` directly (an ALS sweep or a CCD++ pass is one
  /// epoch whatever its update count) and on `max_updates`; token drivers
  /// pass none and stop on update_budget().
  bool Done(int64_t updates, double seconds, int epochs = -1) const;

  /// Evaluates the factors at (`seconds`, `updates`) and records the point.
  /// Returns it; its objective is computed when `need_objective` or
  /// `record_objective` is set, else 0.
  template <typename Real>
  TracePoint Trace(const FactorMatrixT<Real>& w, const FactorMatrixT<Real>& h,
                   double seconds, int64_t updates, ThreadPool* pool = nullptr,
                   bool need_objective = false) {
    TracePoint pt;
    pt.seconds = seconds;
    pt.updates = updates;
    pt.test_rmse = Rmse(ds_.test, w, h, pool);
    if (need_objective || options_.record_objective) {
      pt.objective = Objective(ds_.train, w, h, options_.lambda, pool);
    }
    Record(pt);
    return pt;
  }

  /// Appends an already evaluated point to the trace and the timeline.
  void Record(const TracePoint& pt);

  /// On an empty problem, traces the starting factors once, ends the run
  /// (Finish) and returns true: the caller then skips training.
  template <typename Real>
  bool TraceIfEmpty(const FactorMatrixT<Real>& w,
                    const FactorMatrixT<Real>& h) {
    if (!empty_) return false;
    Trace(w, h, /*seconds=*/0.0, /*updates=*/0);
    Finish();
    return true;
  }

  /// Ends the run: stops the sampler and copies the timeline into the
  /// result. Later calls are no-ops.
  void Finish();

 private:
  const Dataset& ds_;
  const TrainOptions& options_;
  TrainResult* result_;
  const bool empty_;
  const int64_t update_budget_;
  std::optional<obs::RunTimeline> own_timeline_;  // unless the caller's
  obs::RunTimeline* timeline_ = nullptr;          // caller's or own
  bool finished_ = false;
};

/// Shared driver for epoch-synchronous solvers (serial SGD, Hogwild, DSGD,
/// DSGD++, FPSGD**, CCD++, ALS), built on a RunRecorder: one trace point
/// per epoch, stopping on `max_epochs`, `max_updates` or `max_seconds`.
/// Templated on the factor storage precision: it evaluates the (possibly
/// float) working matrices directly — metrics accumulate in double either
/// way — while trace/update accounting lives on the precision-agnostic
/// TrainResult. Evaluation time is excluded from the reported seconds,
/// mirroring the NOMAD driver.
///
/// When the run is multi-threaded (num_workers > 1) the loop evaluates
/// Rmse/Objective across a ThreadPool, so end-of-epoch trace points scale
/// with the worker count instead of serializing a full test-set pass on
/// the driver — the same mechanism the NOMAD driver uses at its pause
/// points. Solvers that already own a pool (ALS, CCD++, DSGD, DSGD++)
/// lend it to the loop; the others get a lazily created one whose threads
/// are idle (parked on a condition variable) during training.
template <typename Real>
class EpochLoopT {
 public:
  /// `w` and `h` are the solver's working factors; they must outlive the
  /// loop. `eval_pool` (optional, borrowed, must outlive the loop) is used
  /// for parallel evaluation; when null and num_workers > 1 the loop
  /// creates its own pool at the first trace point.
  EpochLoopT(const Dataset& ds, const TrainOptions& options,
             const FactorMatrixT<Real>& w, const FactorMatrixT<Real>& h,
             TrainResult* result, ThreadPool* eval_pool = nullptr)
      : EpochLoopT(ds, options, w, h, result, eval_pool,
                   obs::ResolveRegistry(options.metrics)) {}

  /// True while no stopping criterion has fired (an empty problem stops at
  /// once, after its single trace point). The call that returns false ends
  /// the run: the result then holds the complete trace and timeline.
  bool Continue() {
    if (recorder_.empty_problem() ||
        recorder_.Done(result_->total_updates, seconds_, epochs_)) {
      recorder_.Finish();
      return false;
    }
    return true;
  }

  /// Call once per finished epoch with the number of updates it performed.
  /// Records a trace point (test RMSE, optionally objective) and returns
  /// the objective value if it was computed (else a quiet 0) so bold-driver
  /// callers can reuse it.
  double EndEpoch(int64_t epoch_updates, bool need_objective = false) {
    seconds_ += watch_.ElapsedSeconds();
    if (eval_pool_ == nullptr && options_.num_workers > 1) {
      owned_pool_ = std::make_unique<ThreadPool>(options_.num_workers);
      eval_pool_ = owned_pool_.get();
    }
    const double objective = CloseEpoch(epoch_updates, need_objective,
                                        eval_pool_);
    watch_.Restart();
    return objective;
  }

  /// Epochs ended so far.
  int epochs_done() const { return epochs_; }

 protected:
  /// For the virtual-time loop: `registry` as for RunRecorder.
  EpochLoopT(const Dataset& ds, const TrainOptions& options,
             const FactorMatrixT<Real>& w, const FactorMatrixT<Real>& h,
             TrainResult* result, ThreadPool* eval_pool,
             obs::MetricsRegistry* registry)
      : options_(options),
        w_(w),
        h_(h),
        result_(result),
        eval_pool_(eval_pool),
        recorder_(ds, options, result, registry) {
    recorder_.TraceIfEmpty(w_, h_);
  }

  /// Credits one epoch and records its trace point at the run clock
  /// `seconds_`, evaluating on `pool` (nullable).
  double CloseEpoch(int64_t epoch_updates, bool need_objective,
                    ThreadPool* pool) {
    ++epochs_;
    result_->total_updates += epoch_updates;
    result_->total_seconds = seconds_;
    return recorder_
        .Trace(w_, h_, seconds_, result_->total_updates, pool, need_objective)
        .objective;
  }

  double seconds_ = 0.0;  ///< Run clock: wall seconds less eval, or virtual.

 private:
  const TrainOptions& options_;
  const FactorMatrixT<Real>& w_;
  const FactorMatrixT<Real>& h_;
  TrainResult* result_;
  ThreadPool* eval_pool_;  // borrowed or owned_pool_; null = serial eval
  std::unique_ptr<ThreadPool> owned_pool_;
  RunRecorder recorder_;
  Stopwatch watch_;
  int epochs_ = 0;
};

}  // namespace nomad

#endif  // NOMAD_SOLVER_RUN_RECORDER_H_
