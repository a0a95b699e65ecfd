#include "sim/solvers/sim_dsgd.h"

#include <algorithm>
#include <vector>

#include "baselines/block_grid.h"
#include "solver/sgd_kernel.h"
#include "util/rng.h"

namespace nomad {

Result<SimResult> SimDsgdSolver::Train(const Dataset& ds,
                                       const SimOptions& options) {
  NOMAD_RETURN_IF_ERROR(ValidateSimTrainOptions(options.train, Name()));
  const TrainOptions& train = options.train;
  const ClusterConfig& cluster = options.cluster;
  const NetworkModel& net = options.network;
  auto schedule = MakeSchedule(train.schedule, train.alpha, train.beta);
  if (!schedule.ok()) return schedule.status();
  const StepSchedule& sched = *schedule.value();

  const int m_machines = cluster.machines;
  const int k = train.rank;

  SimResult result;
  result.train.solver_name = Name();
  InitFactors(ds, train, &result.train.w, &result.train.h);

  const UserPartition row_part = UserPartition::ByRatings(ds.train, m_machines);
  const UserPartition col_part = UserPartition::ByRows(ds.cols, m_machines);
  const BlockGrid grid = BlockGrid::Build(ds.train, row_part, col_part);

  StepCounts counts(ds.train.nnz());
  BoldDriver driver(train.alpha);
  Rng rng(train.seed ^ 0xD56DULL);

  // Per-stratum H exchange: every machine ships its n/M item rows to the
  // next machine; transfers run in parallel across machine pairs.
  const double h_block_bytes =
      static_cast<double>(ds.cols) / m_machines * 8.0 * k;
  const double exchange_seconds =
      m_machines > 1 ? net.TransitSeconds(h_block_bytes) : 0.0;

  VirtualEpochLoop loop(ds, options, &result);
  std::vector<int32_t> order;
  int epoch = 0;
  while (loop.Continue()) {
    double epoch_seconds = 0.0;
    for (int s = 0; s < m_machines; ++s) {
      double stratum_compute = 0.0;
      for (int mach = 0; mach < m_machines; ++mach) {
        const int cb = (mach + s + epoch) % m_machines;
        const auto& block = grid.Block(mach, cb);
        // Execute the real updates (any serial order within a stratum is
        // equivalent: active blocks share no rows or columns).
        order.resize(block.size());
        for (size_t i = 0; i < block.size(); ++i) {
          order[i] = static_cast<int32_t>(i);
        }
        rng.Shuffle(&order);
        for (int32_t idx : order) {
          const BlockEntry& e = block[static_cast<size_t>(idx)];
          const double step = train.bold_driver
                                  ? driver.step()
                                  : sched.Step(counts.NextCount(e.pos));
          SgdUpdatePair(e.value, step, train.lambda,
                        result.train.w.Row(e.row), result.train.h.Row(e.col),
                        k);
        }
        const double compute = static_cast<double>(block.size()) *
                               cluster.UpdateSeconds(mach, k) /
                               cluster.cores;
        stratum_compute = std::max(stratum_compute, compute);
      }
      epoch_seconds += stratum_compute + exchange_seconds;
      if (m_machines > 1) {
        result.messages += m_machines;
        result.bytes += h_block_bytes * m_machines;
      }
    }
    const double obj =
        loop.EndEpoch(epoch_seconds, ds.train.nnz(), train.bold_driver);
    if (train.bold_driver) driver.EndEpoch(obj);
    ++epoch;
  }
  return result;
}

}  // namespace nomad
