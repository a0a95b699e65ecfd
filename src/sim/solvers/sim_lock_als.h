#ifndef NOMAD_SIM_SOLVERS_SIM_LOCK_ALS_H_
#define NOMAD_SIM_SOLVERS_SIM_LOCK_ALS_H_

#include "sim/cluster.h"

namespace nomad {

/// GraphLab-style distributed ALS with network read-locks (paper Sec. 4.2
/// and Appendix F).
///
/// GraphLab's asynchronous ALS retrieves and read-locks every h_j (j ∈ Ω_i)
/// across the network before updating w_i. The trajectory simulated here is
/// plain ALS — AlsSolver's sweeps (AlsEngineT), run serially — since the
/// asynchronous schedule changes update order, not the fixed-point sweeps'
/// cost structure. The virtual clock charges, per
/// rating, a lock round-trip (inter-machine with probability (M−1)/M,
/// intra-machine otherwise, pipelined `lock_pipeline` deep) plus the k·8
/// bytes of the fetched parameter row, and per row/column the Cholesky
/// solve flops. Lock traffic is what makes this baseline orders of
/// magnitude slower on a cluster — exactly the paper's Appendix F finding.
class SimLockAlsSolver final : public SimSolver {
 public:
  std::string Name() const override { return "sim_lock_als"; }

  Result<SimResult> Train(const Dataset& ds,
                          const SimOptions& options) override;
};

}  // namespace nomad

#endif  // NOMAD_SIM_SOLVERS_SIM_LOCK_ALS_H_
