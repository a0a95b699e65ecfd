#include "sim/solvers/sim_ccdpp.h"

#include "baselines/ccd_core.h"

namespace nomad {

namespace {
// CCD++'s per-rating touch is a multiply-add (~2 flops) against the SGD
// update's ~6 flops per dimension; c_ccd rescales update_seconds_per_dim
// accordingly. One epoch touches each rating (2·inner + 2) times per
// feature (row+col sweeps per inner iteration, residual add/subtract).
constexpr double kCcdFlopFraction = 0.35;
}  // namespace

Result<SimResult> SimCcdppSolver::Train(const Dataset& ds,
                                        const SimOptions& options) {
  NOMAD_RETURN_IF_ERROR(ValidateSimTrainOptions(options.train, Name()));
  const TrainOptions& train = options.train;
  const ClusterConfig& cluster = options.cluster;
  const NetworkModel& net = options.network;
  if (train.ccd_inner_iters < 1) {
    return Status::InvalidArgument("ccd_inner_iters must be >= 1");
  }
  const int m_machines = cluster.machines;
  const int k = train.rank;
  const int inner = train.ccd_inner_iters;

  SimResult result;
  result.train.solver_name = Name();
  InitFactors(ds, train, &result.train.w, &result.train.h);
  CcdppEngine engine(ds.train, train.lambda, &result.train.w, &result.train.h,
                     /*pool=*/nullptr);

  // Straggler-aware compute: the slowest machine bounds each
  // bulk-synchronous sweep.
  const double slow = cluster.straggler_slowdown;
  const double touches =
      static_cast<double>(ds.train.nnz()) * k * (2.0 * inner + 2.0);
  const double compute_seconds = touches * kCcdFlopFraction *
                                 cluster.update_seconds_per_dim * slow /
                                 (static_cast<double>(m_machines) *
                                  cluster.cores);

  double comm_seconds = 0.0;
  if (m_machines > 1) {
    const double slice_bytes =
        (static_cast<double>(ds.rows) + ds.cols) / m_machines * 8.0;
    const double gather = 2.0 * (m_machines - 1) *
                          net.TransitSeconds(slice_bytes / (m_machines - 1));
    comm_seconds = static_cast<double>(k) * 2.0 * inner * gather;
  }

  VirtualEpochLoop loop(ds, options, &result);
  while (loop.Continue()) {
    engine.SweepEpoch(inner);
    if (m_machines > 1) {
      result.messages += static_cast<int64_t>(k) * 2 * inner * 2 *
                         (m_machines - 1) * m_machines;
      result.bytes += static_cast<double>(k) * 2 * inner *
                      (static_cast<double>(ds.rows) + ds.cols) * 8.0;
    }
    loop.EndEpoch(compute_seconds + comm_seconds, engine.EpochWork(inner));
  }
  return result;
}

}  // namespace nomad
