#ifndef NOMAD_LINALG_SIMD_OPS_H_
#define NOMAD_LINALG_SIMD_OPS_H_

namespace nomad {
/// Runtime-dispatched SIMD kernel tables for the dense hot-path vector ops.
namespace simd {

/// Vectorized implementations of the dense-vector kernels behind every SGD
/// update (paper Eqs. 9-10), one table per storage precision. The best
/// instruction set is chosen once at runtime (AVX2+FMA when the CPU
/// supports it, portable scalar otherwise); dense_ops.h routes through the
/// active table, so every solver — NOMAD and the SGD-family baselines alike
/// — picks up the vectorized hot path without recompiling for a specific
/// machine.
///
/// The float table processes 8 lanes per ymm register where the double
/// table processes 4: together with halved row bytes this is the
/// memory-traffic argument for float32 factor storage (ROADMAP). Float
/// kernels accumulate in float — they ARE the f32 arithmetic being
/// benchmarked; reductions that must stay exact (metrics, FrobeniusNorm)
/// accumulate in double at the call site instead.
///
/// All kernels accept unaligned pointers (FactorMatrix rows happen to be
/// cache-line aligned, but test vectors and tails are not) and any k >= 0;
/// the vector bodies handle lane-count tails with a scalar epilogue.
///
/// Numerical note: the AVX2 kernels use FMA and a fixed 2-accumulator
/// reduction tree, so results can differ from the scalar reference by
/// normal floating-point reassociation error (~1 ulp per term). Within one
/// process the dispatch is fixed, so runs remain bit-deterministic.
template <typename T>
struct KernelTableT {
  /// Inner product ⟨a, b⟩ over k elements (the prediction ⟨w_i, h_j⟩).
  T (*dot)(const T* a, const T* b, int k);
  /// y += alpha * x over k elements.
  void (*axpy)(T alpha, const T* x, T* y, int k);
  /// ‖a‖² over k elements (regularization terms).
  T (*squared_norm)(const T* a, int k);
  /// Fused single-pass SGD pair update (see dense_ops.h SgdUpdatePair):
  /// one vector pass computes the error term, a second writes both new
  /// rows from one load of w and h each — no pre-update w copy.
  T (*sgd_update_pair)(T rating, T step, T lambda, T* w, T* h, int k);
  /// Human-readable name of the instruction set: "avx2+fma" or "scalar".
  const char* isa;
};

/// Double-precision kernel table.
using KernelTable = KernelTableT<double>;
/// Float32 kernel table (8 lanes per ymm register instead of 4).
using KernelTableF = KernelTableT<float>;

/// Portable scalar reference kernels (also the correctness oracle for
/// simd_ops_test, and what NOMAD_DISABLE_SIMD=1 selects at runtime for a
/// scalar-vs-SIMD A/B, see docs/BENCHMARKS.md).
/// Defined for T in {float, double}.
template <typename T>
const KernelTableT<T>& ScalarTable();

/// The fastest table this binary can run on this CPU. Compile-time gated:
/// on non-x86 (or non-GCC-compatible) builds this is the scalar table.
/// Setting the NOMAD_DISABLE_SIMD environment variable to a non-empty,
/// non-"0" value before first use forces scalar at runtime (CI uses this to
/// exercise the fallback path on SIMD-capable hosts).
template <typename T>
const KernelTableT<T>& BestAvailableTable();

/// The table dense_ops.h currently routes through for T-typed rows.
/// Defaults to BestAvailableTable<T>() on first use.
template <typename T>
const KernelTableT<T>& ActiveTable();

/// Replaces the active table for T. Not thread-safe; intended for tests and
/// benchmarks only — call before any solver threads are running.
template <typename T>
void SetActiveTable(const KernelTableT<T>& table);

/// @cond INTERNAL
// The templates above are defined only for float and double (simd_ops.cc).
template <> const KernelTableT<float>& ScalarTable<float>();
template <> const KernelTableT<double>& ScalarTable<double>();
template <> const KernelTableT<float>& BestAvailableTable<float>();
template <> const KernelTableT<double>& BestAvailableTable<double>();
template <> const KernelTableT<float>& ActiveTable<float>();
template <> const KernelTableT<double>& ActiveTable<double>();
template <> void SetActiveTable<float>(const KernelTableT<float>& table);
template <> void SetActiveTable<double>(const KernelTableT<double>& table);
/// @endcond

/// Legacy spelling of ScalarTable<double>(), kept for existing callers.
inline const KernelTable& Scalar() { return ScalarTable<double>(); }
/// Legacy spelling of BestAvailableTable<double>().
inline const KernelTable& BestAvailable() {
  return BestAvailableTable<double>();
}
/// Legacy spelling of ActiveTable<double>().
inline const KernelTable& Active() { return ActiveTable<double>(); }
/// Legacy spelling of SetActiveTable<double>().
inline void SetActive(const KernelTable& table) {
  SetActiveTable<double>(table);
}

/// True when the runtime CPU supports the AVX2+FMA kernels, they were
/// compiled in, and the NOMAD_DISABLE_SIMD environment override is not set.
bool HasAvx2Fma();

/// True when the NOMAD_DISABLE_SIMD environment variable forced the scalar
/// tables (read once, cached).
bool SimdDisabledByEnv();

}  // namespace simd
}  // namespace nomad

#endif  // NOMAD_LINALG_SIMD_OPS_H_
