#include "solver/registry.h"

#include "baselines/als.h"
#include "baselines/ccdpp.h"
#include "baselines/dsgd.h"
#include "baselines/fpsgd.h"
#include "baselines/hogwild.h"
#include "baselines/serial_sgd.h"
#include "nomad/nomad_solver.h"

namespace nomad {

std::vector<std::string> SolverNames() {
  return {"nomad", "serial_sgd", "hogwild", "dsgd",
          "dsgdpp", "fpsgd", "ccdpp", "als"};
}

Result<std::unique_ptr<Solver>> MakeSolver(const std::string& name) {
  if (name == "nomad") return std::unique_ptr<Solver>(new NomadSolver());
  if (name == "serial_sgd") {
    return std::unique_ptr<Solver>(new SerialSgdSolver());
  }
  if (name == "hogwild") return std::unique_ptr<Solver>(new HogwildSolver());
  if (name == "dsgd") return std::unique_ptr<Solver>(new DsgdSolver());
  if (name == "dsgdpp") return std::unique_ptr<Solver>(new DsgdppSolver());
  if (name == "fpsgd") return std::unique_ptr<Solver>(new FpsgdSolver());
  if (name == "ccdpp") return std::unique_ptr<Solver>(new CcdppSolver());
  if (name == "als") return std::unique_ptr<Solver>(new AlsSolver());
  return Status::NotFound("unknown solver: " + name);
}

}  // namespace nomad
