#include "solver/sgd_kernel.h"

namespace nomad {

int64_t StepCounts::TotalUpdates() const {
  int64_t total = 0;
  for (uint32_t c : counts_) total += c;
  return total;
}

template <typename Real>
Result<UpdateKernelT<Real>> MakeUpdateKernel(const TrainOptions& options) {
  auto schedule = MakeSchedule(options.schedule, options.alpha, options.beta);
  if (!schedule.ok()) return schedule.status();
  std::unique_ptr<Loss> loss;  // null signals the specialized squared kernel
  if (!options.loss.empty() && options.loss != "squared") {
    auto made = MakeLoss(options.loss);
    if (!made.ok()) return made.status();
    loss = std::move(made).value();
  }
  return UpdateKernelT<Real>(std::move(schedule).value(), std::move(loss),
                             options.lambda, options.rank);
}

template Result<UpdateKernelT<double>> MakeUpdateKernel<double>(
    const TrainOptions& options);
template Result<UpdateKernelT<float>> MakeUpdateKernel<float>(
    const TrainOptions& options);

}  // namespace nomad
