#ifndef NOMAD_SOLVER_SGD_KERNEL_H_
#define NOMAD_SOLVER_SGD_KERNEL_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "linalg/dense_ops.h"
#include "sched/schedule.h"
#include "solver/loss.h"
#include "solver/solver.h"

namespace nomad {

/// Per-rating update counters backing Eq. (11)'s t, keyed by the rating's
/// global CSC position. Each (i, j) is only ever updated by the worker that
/// owns user i, so plain (non-atomic) counters are race-free under NOMAD's
/// ownership discipline; the same holds for DSGD-style strata.
class StepCounts {
 public:
  explicit StepCounts(int64_t nnz)
      : counts_(static_cast<size_t>(nnz), 0) {}

  /// Returns the current count for the rating at CSC position `pos` and
  /// advances it.
  uint32_t NextCount(int64_t pos) {
    return counts_[static_cast<size_t>(pos)]++;
  }

  uint32_t CountAt(int64_t pos) const {
    return counts_[static_cast<size_t>(pos)];
  }

  int64_t TotalUpdates() const;

 private:
  std::vector<uint32_t> counts_;
};

/// One schedule-driven SGD update of (w_i, h_j) for a rating at CSC
/// position `pos`. Returns the pre-update prediction error.
inline double ScheduledSgdUpdate(double rating, const StepSchedule& schedule,
                                 StepCounts* counts, int64_t pos,
                                 double lambda, double* w, double* h, int k) {
  const double step = schedule.Step(counts->NextCount(pos));
  return SgdUpdatePair(rating, step, lambda, w, h, k);
}

/// Bundles schedule + loss + λ into the per-rating update the SGD-family
/// solvers share (nomad, dist_nomad, serial_sgd, hogwild, dsgd, dsgd++,
/// fpsgd**), templated on the factor-row storage precision. Built by
/// MakeUpdateKernel, and owns the schedule and loss it resolved. A null
/// loss selects the specialized squared-loss kernel (the paper's setting
/// and the SIMD fast path, see simd_ops.h); any other Loss goes through the
/// general gradient form of Sec. 2. Rating/step/λ arrive in double from the
/// schedule and are rounded once per update for float rows — the
/// per-element arithmetic then runs entirely in Real.
template <typename Real>
class UpdateKernelT {
 public:
  /// An empty kernel (placeholder for Result); Apply needs a made one.
  UpdateKernelT() = default;
  UpdateKernelT(std::unique_ptr<StepSchedule> schedule,
                std::unique_ptr<Loss> loss, double lambda, int k)
      : schedule_(std::move(schedule)),
        loss_(std::move(loss)),
        lambda_(lambda),
        k_(k) {}

  void Apply(double rating, StepCounts* counts, int64_t pos, Real* w,
             Real* h) const {
    ApplyWithStep(rating, schedule_->Step(counts->NextCount(pos)), w, h);
  }

  /// Same update with a caller-chosen step size — the bold-driver path of
  /// DSGD/DSGD++, which adapts one step per epoch instead of per rating.
  void ApplyWithStep(double rating, double step, Real* w, Real* h) const {
    if (loss_ == nullptr) {
      SgdUpdatePair(static_cast<Real>(rating), static_cast<Real>(step),
                    static_cast<Real>(lambda_), w, h, k_);
    } else {
      SgdUpdatePairLoss(*loss_, static_cast<Real>(rating),
                        static_cast<Real>(step), static_cast<Real>(lambda_),
                        w, h, k_);
    }
  }

 private:
  std::unique_ptr<StepSchedule> schedule_;
  std::unique_ptr<Loss> loss_;  // null = squared fast path
  double lambda_ = 0.0;
  int k_ = 0;
};

/// Resolves `options.schedule`/`alpha`/`beta` (MakeSchedule) and
/// `options.loss` ("squared"/"" = the fast path, else MakeLoss) into the
/// kernel at `options.lambda` and `options.rank`; InvalidArgument or
/// NotFound for unknown names. The one place an SGD-family trainer gets
/// its update rule from.
template <typename Real>
Result<UpdateKernelT<Real>> MakeUpdateKernel(const TrainOptions& options);

}  // namespace nomad

#endif  // NOMAD_SOLVER_SGD_KERNEL_H_
