#include "sim/solvers/sim_dsgd.h"

#include <algorithm>
#include <utility>

#include "baselines/stratified_sgd.h"

namespace nomad {

namespace {

/// DSGD (`overlap` false: M×M blocks, compute + exchange on all `cores`)
/// or DSGD++ (true: M×2M blocks, max(compute, exchange) on
/// `compute_cores`).
Result<SimResult> TrainStratified(const Dataset& ds, const SimOptions& options,
                                  const std::string& name, bool overlap) {
  NOMAD_RETURN_IF_ERROR(ValidateSimTrainOptions(options.train, name));
  const TrainOptions& train = options.train;
  const ClusterConfig& cluster = options.cluster;
  auto kernel = MakeUpdateKernel<double>(train);
  if (!kernel.ok()) return kernel.status();

  const int m_machines = cluster.machines;
  const int cblocks = overlap ? 2 * m_machines : m_machines;
  const int k = train.rank;
  const int cores = overlap ? cluster.compute_cores : cluster.cores;

  SimResult result;
  result.train.solver_name = name;
  InitFactors(ds, train, &result.train.w, &result.train.h);
  StratifiedSgdT<double> engine(ds.train, m_machines, cblocks,
                                std::move(kernel).value(), train,
                                &result.train.w, &result.train.h,
                                /*pool=*/nullptr);

  // Per-stratum H exchange: every machine ships its n/cblocks item rows to
  // the next machine; transfers run in parallel across machine pairs.
  const double h_block_bytes =
      static_cast<double>(ds.cols) / cblocks * 8.0 * k;
  const double exchange_seconds =
      m_machines > 1 ? options.network.TransitSeconds(h_block_bytes) : 0.0;

  // The strata of every epoch are the same blocks in a rotated order, so
  // the epoch's virtual duration is fixed.
  double epoch_seconds = 0.0;
  for (int s = 0; s < cblocks; ++s) {
    double stratum_compute = 0.0;
    for (int mach = 0; mach < m_machines; ++mach) {
      const double compute =
          static_cast<double>(engine.ActiveBlock(s, mach).size()) *
          cluster.UpdateSeconds(mach, k) / cores;
      stratum_compute = std::max(stratum_compute, compute);
    }
    // DSGD++ overlaps the next half-block's transfer with this stratum's
    // compute; DSGD serializes the two.
    epoch_seconds += overlap ? std::max(stratum_compute, exchange_seconds)
                             : stratum_compute + exchange_seconds;
  }

  VirtualEpochLoop loop(ds, options, &result);
  while (loop.Continue()) {
    engine.SweepEpoch();
    if (m_machines > 1) {
      result.messages += static_cast<int64_t>(cblocks) * m_machines;
      result.bytes += h_block_bytes * m_machines * cblocks;
    }
    engine.EndEpoch(
        loop.EndEpoch(epoch_seconds, ds.train.nnz(), train.bold_driver));
  }
  return result;
}

}  // namespace

Result<SimResult> SimDsgdSolver::Train(const Dataset& ds,
                                       const SimOptions& options) {
  return TrainStratified(ds, options, Name(), /*overlap=*/false);
}

Result<SimResult> SimDsgdppSolver::Train(const Dataset& ds,
                                         const SimOptions& options) {
  return TrainStratified(ds, options, Name(), /*overlap=*/true);
}

}  // namespace nomad
