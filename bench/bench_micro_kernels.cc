// Micro-benchmarks (google-benchmark): the inner loops every experiment
// rests on — the fused SGD update pair across latent dimensions, dot
// products, Cholesky solves, concurrent-queue operations, and token
// routing. These measure *real* host performance (unlike the virtual-time
// figure harnesses) and substantiate the hardware constant `a` used by the
// simulator's cost model.

#include <benchmark/benchmark.h>

#include "linalg/cholesky.h"
#include "linalg/dense_ops.h"
#include "nomad/token_router.h"
#include "queue/mpmc_queue.h"
#include "util/rng.h"

namespace nomad {
namespace {

void BM_SgdUpdatePair(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  std::vector<double> w(static_cast<size_t>(k));
  std::vector<double> h(static_cast<size_t>(k));
  Rng rng(1);
  for (auto& v : w) v = rng.Uniform(-1, 1);
  for (auto& v : h) v = rng.Uniform(-1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SgdUpdatePair(1.5, 1e-3, 0.05, w.data(), h.data(), k));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SgdUpdatePair)->Arg(10)->Arg(20)->Arg(50)->Arg(100);

void BM_Dot(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  std::vector<double> a(static_cast<size_t>(k), 0.5);
  std::vector<double> b(static_cast<size_t>(k), 0.25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dot(a.data(), b.data(), k));
  }
}
BENCHMARK(BM_Dot)->Arg(10)->Arg(100);

void BM_CholeskySolve(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  Rng rng(2);
  std::vector<double> base(static_cast<size_t>(k) * k);
  for (auto& v : base) v = rng.Uniform(-1, 1);
  std::vector<double> m(static_cast<size_t>(k) * k, 0.0);
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j) {
      double s = (i == j) ? 1.0 : 0.0;
      for (int p = 0; p < k; ++p) {
        s += base[static_cast<size_t>(i) * k + p] *
             base[static_cast<size_t>(j) * k + p];
      }
      m[static_cast<size_t>(i) * k + j] = s;
    }
  }
  std::vector<double> b(static_cast<size_t>(k), 1.0);
  for (auto _ : state) {
    auto m_copy = m;
    auto b_copy = b;
    benchmark::DoNotOptimize(
        CholeskySolveInPlace(m_copy.data(), b_copy.data(), k));
  }
}
BENCHMARK(BM_CholeskySolve)->Arg(10)->Arg(50)->Arg(100);

void BM_MpmcQueuePushPop(benchmark::State& state) {
  MpmcQueue<int32_t> q;
  for (auto _ : state) {
    q.Push(7);
    benchmark::DoNotOptimize(q.TryPop());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MpmcQueuePushPop);

void BM_TokenRouterPick(benchmark::State& state) {
  const bool least_loaded = state.range(0) != 0;
  TokenRouter router(
      least_loaded ? Routing::kLeastLoaded : Routing::kUniform, 32);
  Rng rng(3);
  const auto probe = [](int q) -> size_t { return static_cast<size_t>(q); };
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.Pick(0, &rng, probe));
  }
}
BENCHMARK(BM_TokenRouterPick)->Arg(0)->Arg(1);

}  // namespace
}  // namespace nomad

BENCHMARK_MAIN();
