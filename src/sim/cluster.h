#ifndef NOMAD_SIM_CLUSTER_H_
#define NOMAD_SIM_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "sim/network.h"
#include "solver/run_recorder.h"
#include "solver/solver.h"

namespace nomad {

/// Options for a simulated multi-machine training run. The TrainOptions
/// stopping fields apply to *virtual* time: max_seconds is a virtual-second
/// budget. A run is deterministic given (options, dataset).
///
/// Core accounting convention (mirrors the paper's setups): solvers with
/// dedicated communication threads (sim_nomad, sim_dsgdpp) compute on
/// `cluster.compute_cores` cores; bulk-synchronous solvers (sim_dsgd,
/// sim_ccdpp, sim_lock_als) compute on all `cluster.cores` cores — exactly
/// the Sec. 5.4 arrangement (NOMAD/DSGD++ 2+2, DSGD/CCD++ 4+0).
struct SimOptions {
  TrainOptions train;
  ClusterConfig cluster;
  NetworkModel network;

  /// Virtual seconds between convergence-trace samples.
  double eval_interval = 0.25;

  // -- sim_nomad specifics --
  int batch_size = 100;      // tokens accumulated per network message
                             // (Sec. 3.5, following Smola & Narayanamurthy)
  bool circulate = true;     // Sec. 3.4 intra-machine token circulation
  double flush_delay = 2e-4; // max virtual seconds a partial batch waits
  // Tokens a simulated worker drains from its queue per busy period —
  // mirrors the shared-memory TrainOptions::token_batch_size hand-off
  // batching. Defaults to 1 (strict token-at-a-time, the paper's
  // Algorithm 1) so the deterministic figure benches keep their seed
  // trajectories; batching experiments opt in explicitly.
  int worker_batch_size = 1;
  // Mirrors TrainOptions::token_batch_mode = auto: each simulated worker
  // runs the same BatchController AIMD rule (nomad/batch_controller.h)
  // over its virtual queue instead of the fixed worker_batch_size, with
  // worker_max_batch as the ceiling and worker_batch_size as the start.
  // The simulator has no idle backoff (an empty-queue worker simply is
  // not scheduled), so the controller sees only the depth and hit-rate
  // signals there — documented asymmetry with the shared-memory path.
  // Keeps sim and shared-memory runs comparable when studying adaptive
  // batching; per-worker stats land in SimResult::worker_batch.
  bool worker_batch_auto = false;
  int worker_max_batch = 32;

  /// When non-null, sim_nomad appends every (worker, item) token-processing
  /// step in execution order. The serializability property test replays
  /// this log through a serial SGD and checks bit-identical factors.
  std::vector<std::pair<int, int32_t>>* process_log = nullptr;
};

/// Result of a simulated run: the usual TrainResult (trace timestamps are
/// virtual seconds) plus network accounting.
struct SimResult {
  TrainResult train;
  int64_t messages = 0;   // inter-machine messages
  double bytes = 0.0;     // inter-machine payload bytes
  /// Total virtual seconds workers spent processing tokens (sim_nomad
  /// only). Utilization = busy_seconds / (workers × total_seconds) — the
  /// "CPU busy while network busy" property the paper claims over
  /// bulk-synchronous methods.
  double busy_seconds = 0.0;
  /// Per-worker token-batch adaptation stats (sim_nomad with
  /// worker_batch_auto only; empty otherwise). Mirrors
  /// TrainResult::worker_batch for the shared-memory solver.
  std::vector<WorkerBatchStats> worker_batch;

  double Utilization(int total_workers) const {
    const double denom = train.total_seconds * total_workers;
    return denom > 0 ? busy_seconds / denom : 0.0;
  }
};

/// Interface of the simulated distributed solvers.
class SimSolver {
 public:
  virtual ~SimSolver() = default;
  virtual std::string Name() const = 0;
  virtual Result<SimResult> Train(const Dataset& ds,
                                  const SimOptions& options) = 0;
};

/// Validates the TrainOptions every simulated solver reads: the common
/// fields, plus the loss. The simulators run squared-loss updates only, so
/// any other loss is rejected rather than silently trained as squared.
Status ValidateSimTrainOptions(const TrainOptions& train,
                               const std::string& solver_name);

/// {"sim_nomad", "sim_dsgd", "sim_dsgdpp", "sim_ccdpp", "sim_lock_als"}.
std::vector<std::string> SimSolverNames();
Result<std::unique_ptr<SimSolver>> MakeSimSolver(const std::string& name);

/// The epoch loop of the epoch-trajectory simulators (DSGD, DSGD++,
/// CCD++, lock-ALS) on virtual time: these algorithms are bulk-synchronous,
/// so their *parameter trajectory* per epoch is independent of timing; the
/// simulator runs the real updates and then advances the virtual clock by
/// the modelled epoch duration. Recording and stopping are EpochLoopT's
/// (solver/run_recorder.h); evaluation stays serial and the timeline has no
/// registry behind it, so a run's trace does not depend on the host.
class VirtualEpochLoop : public EpochLoopT<double> {
 public:
  VirtualEpochLoop(const Dataset& ds, const SimOptions& options,
                   SimResult* result)
      : EpochLoopT<double>(ds, options.train, result->train.w,
                           result->train.h, &result->train,
                           /*eval_pool=*/nullptr, /*registry=*/nullptr) {}

  /// Advances virtual time by `epoch_seconds`, credits `epoch_updates`,
  /// and records a trace point. Returns the training objective when
  /// requested (for bold-driver callers), else 0.
  double EndEpoch(double epoch_seconds, int64_t epoch_updates,
                  bool need_objective = false) {
    seconds_ += epoch_seconds;
    return CloseEpoch(epoch_updates, need_objective, /*pool=*/nullptr);
  }
};

}  // namespace nomad

#endif  // NOMAD_SIM_CLUSTER_H_
