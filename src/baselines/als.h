#ifndef NOMAD_BASELINES_ALS_H_
#define NOMAD_BASELINES_ALS_H_

#include <memory>
#include <vector>

#include "data/sparse_matrix.h"
#include "linalg/cholesky.h"
#include "linalg/factor_matrix.h"
#include "solver/solver.h"
#include "util/thread_pool.h"

namespace nomad {

/// The ALS sweeps (Eq. 3), shared by the threaded baseline (AlsSolver) and
/// the lock-based cluster simulator (SimLockAlsSolver): every user's ridge
/// system w_i ← (HᵀΩᵢHΩᵢ + λ|Ω_i| I)⁻¹ Hᵀa_i solved exactly via Cholesky,
/// then every item's symmetric system. Each row's solve reads only the
/// other side's factors, so a pool run and a serial (null pool) run reach
/// the same factors bit for bit. The normal-equation accumulators and the
/// solve stay double even for float factors (see NormalEquations).
template <typename Real>
class AlsEngineT {
 public:
  /// `w` and `h` must outlive the engine and already be initialized.
  AlsEngineT(const SparseMatrix& train, double lambda, FactorMatrixT<Real>* w,
             FactorMatrixT<Real>* h, ThreadPool* pool);

  /// One epoch: the W half-sweep with H fixed, then the H half-sweep.
  void SweepEpoch();

 private:
  const SparseMatrix& train_;
  const double lambda_;
  FactorMatrixT<Real>* w_;
  FactorMatrixT<Real>* h_;
  ThreadPool* pool_;  // may be null (serial)
  // One accumulator per pool shard, reused across rows.
  std::vector<std::unique_ptr<NormalEquations>> scratch_;
};

extern template class AlsEngineT<float>;
extern template class AlsEngineT<double>;

/// Alternating Least Squares (Zhou et al. 2008; paper Sec. 2.1): each epoch
/// is one AlsEngineT sweep. Rows (and then columns) are embarrassingly
/// parallel with a barrier between the two half-sweeps.
class AlsSolver final : public Solver {
 public:
  std::string Name() const override { return "als"; }

  Result<TrainResult> Train(const Dataset& ds,
                            const TrainOptions& options) override;
};

}  // namespace nomad

#endif  // NOMAD_BASELINES_ALS_H_
