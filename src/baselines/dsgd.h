#ifndef NOMAD_BASELINES_DSGD_H_
#define NOMAD_BASELINES_DSGD_H_

#include "solver/solver.h"

namespace nomad {

/// DSGD (Gemulla et al. 2011; paper Sec. 4.1): the rating matrix is cut
/// into p×p blocks. An epoch consists of p bulk-synchronous strata; in
/// stratum s, worker q processes block (q, (q+s+epoch) mod p), so the p
/// active blocks never share a row- or column-block. Every stratum ends
/// with a barrier — the "curse of the last reducer" the paper contrasts
/// NOMAD against. The strata are StratifiedSgdT's
/// (baselines/stratified_sgd.h), which the simulator shares.
///
/// Step sizes: with options.bold_driver (the paper's configuration for
/// DSGD) the step adapts per epoch from the training objective; otherwise
/// the per-rating Eq. (11) schedule is used.
class DsgdSolver final : public Solver {
 public:
  std::string Name() const override { return "dsgd"; }

  Result<TrainResult> Train(const Dataset& ds,
                            const TrainOptions& options) override;
};

/// DSGD++ (Teflioudi et al. 2012; paper Sec. 4.1): like DSGD but with p×2p
/// blocks, so that while the p workers compute on p column-blocks, the
/// other p column-blocks are "in flight" — overlapping communication with
/// computation. In shared memory the overlap is free; the distributed
/// overlap behaviour is modelled by the simulator counterpart
/// (SimDsgdppSolver). An epoch is 2p strata with a barrier after each.
class DsgdppSolver final : public Solver {
 public:
  std::string Name() const override { return "dsgdpp"; }

  Result<TrainResult> Train(const Dataset& ds,
                            const TrainOptions& options) override;
};

}  // namespace nomad

#endif  // NOMAD_BASELINES_DSGD_H_
