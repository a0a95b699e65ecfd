#include "sim/cluster.h"

#include "sim/solvers/sim_ccdpp.h"
#include "sim/solvers/sim_dsgd.h"
#include "sim/solvers/sim_lock_als.h"
#include "sim/solvers/sim_nomad.h"

namespace nomad {

Status ValidateSimTrainOptions(const TrainOptions& train,
                               const std::string& solver_name) {
  NOMAD_RETURN_IF_ERROR(ValidateCommonOptions(train));
  if (train.loss != "squared" && !train.loss.empty()) {
    return Status::InvalidArgument(solver_name +
                                   " supports only the squared loss");
  }
  return Status::OK();
}

std::vector<std::string> SimSolverNames() {
  return {"sim_nomad", "sim_dsgd", "sim_dsgdpp", "sim_ccdpp", "sim_lock_als"};
}

Result<std::unique_ptr<SimSolver>> MakeSimSolver(const std::string& name) {
  if (name == "sim_nomad") {
    return std::unique_ptr<SimSolver>(new SimNomadSolver());
  }
  if (name == "sim_dsgd") {
    return std::unique_ptr<SimSolver>(new SimDsgdSolver());
  }
  if (name == "sim_dsgdpp") {
    return std::unique_ptr<SimSolver>(new SimDsgdppSolver());
  }
  if (name == "sim_ccdpp") {
    return std::unique_ptr<SimSolver>(new SimCcdppSolver());
  }
  if (name == "sim_lock_als") {
    return std::unique_ptr<SimSolver>(new SimLockAlsSolver());
  }
  return Status::NotFound("unknown sim solver: " + name);
}

}  // namespace nomad
