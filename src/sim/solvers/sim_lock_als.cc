#include "sim/solvers/sim_lock_als.h"

#include <memory>

#include "linalg/cholesky.h"

namespace nomad {

namespace {
// Concurrent outstanding lock requests per worker (GraphLab pipelines its
// vertex-locking engine; without pipelining the baseline would be even
// slower than the paper shows).
constexpr double kLockPipeline = 8.0;
// Seconds per flop, derived from the SGD constant: one SGD dimension is
// ~6 flops.
constexpr double kFlopsPerDim = 6.0;
}  // namespace

Result<SimResult> SimLockAlsSolver::Train(const Dataset& ds,
                                          const SimOptions& options) {
  NOMAD_RETURN_IF_ERROR(ValidateSimTrainOptions(options.train, Name()));
  const TrainOptions& train = options.train;
  const ClusterConfig& cluster = options.cluster;
  const NetworkModel& net = options.network;
  const int m_machines = cluster.machines;
  const int k = train.rank;

  SimResult result;
  result.train.solver_name = Name();
  InitFactors(ds, train, &result.train.w, &result.train.h);
  FactorMatrix& w = result.train.w;
  FactorMatrix& h = result.train.h;

  const double sec_per_flop =
      cluster.update_seconds_per_dim / kFlopsPerDim;
  const double nnz = static_cast<double>(ds.train.nnz());
  const double total_cores =
      static_cast<double>(m_machines) * cluster.cores;

  // Compute: per half-sweep, each rating contributes k² flops to the
  // normal equations and each row a k³/3 Cholesky.
  const double gram_flops = 2.0 * nnz * static_cast<double>(k) * k;
  const double chol_flops =
      (static_cast<double>(ds.rows) + ds.cols) *
      static_cast<double>(k) * k * k / 3.0;
  const double compute_seconds = (gram_flops + chol_flops) * sec_per_flop *
                                 cluster.straggler_slowdown / total_cores;

  // Locking/fetch: every rating needs its counterpart parameter row locked
  // and fetched, twice per epoch (once per half-sweep).
  const double remote_fraction =
      m_machines > 1 ? static_cast<double>(m_machines - 1) / m_machines : 0.0;
  const double per_lock =
      remote_fraction *
          (net.inter_latency / kLockPipeline + k * 8.0 / net.bandwidth) +
      (1.0 - remote_fraction) * net.intra_latency / kLockPipeline;
  const double lock_seconds = 2.0 * nnz * per_lock / total_cores;

  const double epoch_seconds = compute_seconds + lock_seconds;

  std::unique_ptr<NormalEquations> ne = std::make_unique<NormalEquations>(k);
  VirtualEpochLoop loop(ds, options, &result);
  while (loop.Continue()) {
    // The actual ALS sweeps (Eq. 3), executed exactly.
    for (int32_t i = 0; i < ds.train.rows(); ++i) {
      const int32_t n = ds.train.RowNnz(i);
      if (n == 0) continue;
      const int32_t* cols = ds.train.RowCols(i);
      const float* vals = ds.train.RowVals(i);
      ne->Reset();
      for (int32_t t = 0; t < n; ++t) ne->Add(h.Row(cols[t]), vals[t]);
      ne->Solve(train.lambda * n, w.Row(i));
    }
    for (int32_t j = 0; j < ds.train.cols(); ++j) {
      const int32_t n = ds.train.ColNnz(j);
      if (n == 0) continue;
      const int32_t* rows = ds.train.ColRows(j);
      const float* vals = ds.train.ColVals(j);
      ne->Reset();
      for (int32_t t = 0; t < n; ++t) ne->Add(w.Row(rows[t]), vals[t]);
      ne->Solve(train.lambda * n, h.Row(j));
    }
    if (m_machines > 1) {
      result.messages += static_cast<int64_t>(2 * nnz * remote_fraction);
      result.bytes += 2.0 * nnz * remote_fraction * k * 8.0;
    }
    loop.EndEpoch(epoch_seconds,
                  static_cast<int64_t>(ds.rows) + ds.cols);
  }
  return result;
}

}  // namespace nomad
