#ifndef NOMAD_SIM_SOLVERS_SIM_DSGD_H_
#define NOMAD_SIM_SOLVERS_SIM_DSGD_H_

#include "sim/cluster.h"

namespace nomad {

/// Simulated distributed DSGD (Gemulla et al.; paper Sec. 4.1 & Fig. 3).
///
/// DSGD is bulk-synchronous, so its parameter trajectory is independent of
/// event timing: the simulator runs the threaded DsgdSolver's strata
/// (StratifiedSgdT, one row block per machine) serially, and so reaches
/// its factors bit for bit when machines = num_workers. The virtual clock
/// advances analytically:
///
///   epoch = Σ_strata [ max_m(block_nnz_m · a·k / cores · slowdown_m)
///                      + H-block exchange time ]
///
/// The max() is the "curse of the last reducer"; the additive exchange term
/// is the compute/communication serialization the paper criticizes — both
/// emerge directly from this formula. Uses all `cluster.cores` for compute
/// (DSGD has no dedicated communication threads).
class SimDsgdSolver final : public SimSolver {
 public:
  std::string Name() const override { return "sim_dsgd"; }

  Result<SimResult> Train(const Dataset& ds,
                          const SimOptions& options) override;
};

/// Simulated DSGD++ (Teflioudi et al.; paper Sec. 4.1): DSGD with 2M
/// column-blocks where the transfer of the *next* H block overlaps the
/// computation on the current one, so a stratum costs
/// max(compute, exchange) instead of compute + exchange. Still
/// bulk-synchronous per stratum (last-reducer max remains). Computes on
/// `compute_cores` (two cores per machine are reserved for communication,
/// as in the paper's setup). Its trajectory is DsgdppSolver's.
class SimDsgdppSolver final : public SimSolver {
 public:
  std::string Name() const override { return "sim_dsgdpp"; }

  Result<SimResult> Train(const Dataset& ds,
                          const SimOptions& options) override;
};

}  // namespace nomad

#endif  // NOMAD_SIM_SOLVERS_SIM_DSGD_H_
