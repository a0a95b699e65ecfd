#include "nomad/nomad_solver.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "eval/metrics.h"
#include "nomad/token_worker_pool.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
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
  auto schedule = MakeSchedule(options.schedule, options.alpha, options.beta);
  if (!schedule.ok()) return schedule.status();
  auto loss = ResolveLoss(options.loss);
  if (!loss.ok()) return loss.status();

  TrainResult result;
  result.solver_name = name;
  result.precision = options.precision;
  FactorMatrixT<Real> w;
  FactorMatrixT<Real> h;
  InitFactorsT<Real>(ds, options, &w, &h);

  // Observability (obs/metrics.h): handles are null-safe no-ops when the
  // resolved registry is disabled (NOMAD_METRICS=off), so the hot path
  // below never branches on "metrics on?". The run timeline captures
  // registry deltas at every trace point (and, with metrics_sample_ms, on
  // a sampler thread between them); a caller-provided one lets the scrape
  // endpoint serve /timeseries live, a private one still fills
  // TrainResult::timeline.
  obs::MetricsRegistry* const registry = obs::ResolveRegistry(options.metrics);
  obs::RunTimeline local_timeline(registry);
  obs::RunTimeline* const timeline =
      options.timeline != nullptr ? options.timeline : &local_timeline;

  // An empty training set (or no items) can never satisfy an update-count
  // stopping criterion: the workers would circulate empty tokens forever.
  // Evaluate once and return.
  if (ds.train.nnz() == 0 || ds.cols == 0) {
    TracePoint pt;
    pt.test_rmse = Rmse(ds.test, w, h);
    result.trace.Add(pt);
    timeline->RecordTrace(pt);
    result.timeline = timeline->Points();
    StoreTrainedFactors(std::move(w), std::move(h), &result);
    return result;
  }

  const UpdateKernelT<Real> kernel(*schedule.value(), loss.value().get(),
                                   options.lambda, options.rank);
  LocalHandOff local;
  TokenWorkerPool<Real, LocalHandOff> pool(ds, options, /*world=*/1,
                                           /*rank=*/-1, &w, &h, kernel,
                                           registry, &local);

  // Driver setup: stopping criteria and trace cadence (the update cap must
  // be in place before the workers start).
  const int64_t epoch_updates = std::max<int64_t>(ds.train.nnz(), 1);
  const int64_t eval_every = options.eval_every_updates > 0
                                 ? options.eval_every_updates
                                 : epoch_updates;
  const int64_t max_updates =
      options.max_updates > 0
          ? options.max_updates
          : (options.max_epochs > 0 ? options.max_epochs * epoch_updates
                                    : -1);
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

  if (options.metrics_sample_ms > 0) {
    timeline->StartSampler(options.metrics_sample_ms);
  }
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
    const double elapsed = train_seconds + wall.ElapsedSeconds();
    const bool out_of_time =
        options.max_seconds > 0 && elapsed >= options.max_seconds;
    const bool out_of_updates = max_updates > 0 && done >= max_updates;
    if (done >= next_eval || out_of_time || out_of_updates) {
      pool.Pause();
      train_seconds += wall.ElapsedSeconds();
      const int64_t updates_now = pool.updates();
      TracePoint pt;
      pt.seconds = train_seconds;
      pt.updates = updates_now;
      pt.test_rmse = Rmse(ds.test, w, h, &eval_pool);
      if (options.record_objective) {
        pt.objective = Objective(ds.train, w, h, options.lambda, &eval_pool);
      }
      result.trace.Add(pt);
      timeline->RecordTrace(pt);
      next_eval = updates_now + eval_every;
      pool.SetUpdatesCap(cap_for(next_eval));
      if (out_of_time || out_of_updates) break;
      wall.Restart();
      pool.Resume();
      // The pause froze the workers; drop it from the rate estimate.
      last_done = pool.updates();
      tick.Restart();
    }
  }
  pool.Stop();

  // Stop the sampler before reading the timeline out (a caller-owned
  // timeline keeps sampling only if the caller restarts it — the run it
  // was pacing is over).
  timeline->StopSampler();
  result.timeline = timeline->Points();
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
  if (options.nomadic_rows) {
    // Footnote 2: circulate user parameters instead — train the transposed
    // problem and swap the factors back.
    const Dataset transposed = Transpose(ds);
    TrainOptions inner = options;
    inner.nomadic_rows = false;
    auto result = Train(transposed, inner);
    if (!result.ok()) return result.status();
    TrainResult swapped = std::move(result).value();
    std::swap(swapped.w, swapped.h);
    return swapped;
  }
  return DispatchPrecision(options.precision, [&](auto zero) {
    return TrainImpl<decltype(zero)>(ds, options, Name());
  });
}

}  // namespace nomad
