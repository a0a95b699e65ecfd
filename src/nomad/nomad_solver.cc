#include "nomad/nomad_solver.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "nomad/token_worker_pool.h"
#include "obs/metrics.h"
#include "solver/run_recorder.h"
#include "solver/sgd_kernel.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace nomad {

namespace {

/// The training run for one storage precision. Everything the workers
/// touch per rating — the circulated h_j rows, the owned w_i rows, and the
/// fused SGD kernel — is Real-typed; update accounting, the step schedule,
/// and the evaluation sums stay double.
template <typename Real>
Result<TrainResult> TrainImpl(const Dataset& ds, const TrainOptions& options,
                              const std::string& name) {
  auto kernel = MakeUpdateKernel<Real>(options);
  if (!kernel.ok()) return kernel.status();

  TrainResult result;
  result.solver_name = name;
  result.precision = options.precision;
  FactorMatrixT<Real> w;
  FactorMatrixT<Real> h;
  InitFactorsT<Real>(ds, options, &w, &h);

  // Observability (obs/metrics.h): handles are null-safe no-ops when the
  // resolved registry is disabled (NOMAD_METRICS=off), so the hot path
  // below never branches on "metrics on?". The recorder's timeline
  // captures registry deltas at every trace point (and, with
  // metrics_sample_ms, on a sampler thread between them).
  obs::MetricsRegistry* const registry = obs::ResolveRegistry(options.metrics);
  RunRecorder recorder(ds, options, &result, registry);
  if (recorder.TraceIfEmpty(w, h)) {  // no tokens worth circulating
    StoreTrainedFactors(std::move(w), std::move(h), &result);
    return result;
  }

  LocalHandOff local;
  TokenWorkerPool<Real, LocalHandOff> pool(ds, options, /*world=*/1,
                                           /*rank=*/-1, &w, &h,
                                           kernel.value(), registry, &local);

  // Driver setup: stopping criteria and trace cadence (the update cap must
  // be in place before the workers start).
  const int64_t eval_every = options.eval_every_updates > 0
                                 ? options.eval_every_updates
                                 : ds.train.nnz();
  const int64_t max_updates = recorder.update_budget();
  // Workers are quiesced during evaluation, so the pool's threads have the
  // machine to themselves; test-set RMSE (and optionally the objective)
  // splits across them instead of running serially on the driver. Under
  // NUMA placement the pool inherits the workers' node pinning, so each
  // eval shard reads mostly-local factor pages.
  ThreadPool eval_pool(options.num_workers, pool.worker_cpus());
  double train_seconds = 0.0;  // excludes evaluation pauses
  int64_t next_eval = eval_every;
  const auto cap_for = [max_updates](int64_t eval_at) {
    return max_updates > 0 ? std::min(eval_at, max_updates) : eval_at;
  };
  pool.SetUpdatesCap(cap_for(next_eval));

  Stopwatch wall;
  pool.Start();

  // Driver pacing: nap up to 100 µs between checks (the old yield()
  // degenerated to a hot spin), but shorten the nap to half the estimated
  // time to the next update threshold so batched workers cannot blow far
  // past an update budget while the driver sleeps.
  double est_rate = 0.0;  // updates per second, EWMA
  const obs::Gauge rate_gauge = registry->GetGauge("nomad_updates_per_second");
  int64_t last_done = 0;
  Stopwatch tick;
  for (;;) {
    {
      const int64_t done_now = pool.updates();
      const double dt = tick.ElapsedSeconds();
      if (dt > 20e-6) {
        const double inst =
            static_cast<double>(done_now - last_done) / dt;
        est_rate = est_rate > 0.0 ? 0.5 * est_rate + 0.5 * inst : inst;
        rate_gauge.Set(est_rate);
        last_done = done_now;
        tick.Restart();
      }
      int64_t threshold = next_eval;
      if (max_updates > 0) threshold = std::min(threshold, max_updates);
      const int64_t remaining = threshold - done_now;
      double nap = 100e-6;
      if (est_rate > 0.0 && remaining > 0) {
        nap = std::min(nap, 0.5 * static_cast<double>(remaining) / est_rate);
      }
      if (remaining <= 0 || nap < 2e-6) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::duration<double>(nap));
      }
    }
    const int64_t done = pool.updates();
    const bool stop =
        recorder.Done(done, train_seconds + wall.ElapsedSeconds());
    if (done >= next_eval || stop) {
      pool.Pause();
      train_seconds += wall.ElapsedSeconds();
      const int64_t updates_now = pool.updates();
      recorder.Trace(w, h, train_seconds, updates_now, &eval_pool);
      next_eval = updates_now + eval_every;
      pool.SetUpdatesCap(cap_for(next_eval));
      if (stop) break;
      wall.Restart();
      pool.Resume();
      // The pause froze the workers; drop it from the rate estimate.
      last_done = pool.updates();
      tick.Restart();
    }
  }
  pool.Stop();

  recorder.Finish();
  result.total_updates = pool.updates();
  result.total_seconds = train_seconds;
  result.worker_batch = pool.batch_stats();
  StoreTrainedFactors(std::move(w), std::move(h), &result);
  return result;
}

}  // namespace

Result<TrainResult> NomadSolver::Train(const Dataset& ds,
                                       const TrainOptions& options) {
  NOMAD_RETURN_IF_ERROR(ValidateCommonOptions(options));
  return TrainNomadic(ds, options.nomadic_rows, [&](const Dataset& d) {
    return DispatchPrecision(options.precision, [&](auto zero) {
      return TrainImpl<decltype(zero)>(d, options, Name());
    });
  });
}

}  // namespace nomad
