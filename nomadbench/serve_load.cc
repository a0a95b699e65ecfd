// Open-loop serving step: kQueryThreads query threads on a shared schedule,
// and ratings streamed into a one-applier RatingIngest, on a freshly loaded
// engine (see common.h).
#include <atomic>
#include <deque>
#include <thread>
#include <utility>

#include "common.h"
#include "nomad/incremental_update.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/ingest.h"
#include "util/rng.h"

namespace nomadbench {
namespace {

// A step's latency percentiles are medians over this many consecutive
// windows of its schedule, so one stall of the host moves one window.
constexpr int kWindows = 5;

struct PendingReflect {
  int32_t user = 0;
  uint64_t version_before = 0;
  double submitted = 0.0;
};

// Waits until `t` (seconds since `origin`), calling `poll` at least every
// ~250 us: sleeps while far from it, then yields, so a waiting thread is
// running when its work falls due without burning a core before, and
// reflect times resolve to ~0.25 ms.
template <typename Poll>
void WaitUntil(Clock::time_point origin, double t, Poll&& poll) {
  for (;;) {
    poll();
    const double ahead = t - Seconds(origin, Clock::now());
    if (ahead <= 0.0) return;
    if (ahead > 300e-6) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(std::min(ahead - 200e-6, 250e-6)));
    } else {
      std::this_thread::yield();
    }
  }
}

}  // namespace

StepResult RunServeStep(const StepConfig& config) {
  using nomad::serve::RatingIngest;
  using nomad::serve::ServeEngine;
  StepResult out;
  out.rate = config.rate;
  Tracer* tracer = config.tracer;
  ScopedSpan step_span(tracer, "serve.step", config.parent_span);

  auto fail = [&out](const std::string& what) {
    ++out.failed;
    if (out.error.empty()) out.error = what;
  };

  // ---- set-up: model file -> engine (fresh registry per step) ----
  nomad::obs::MetricsRegistry registry;
  const Clock::time_point s0 = Clock::now();
  nomad::Result<nomad::Model> loaded = [&] {
    ScopedSpan span(tracer, "solver.LoadModel", step_span.id());
    return nomad::LoadModel(config.model_path);
  }();
  const Clock::time_point s1 = Clock::now();
  out.load_s = Seconds(s0, s1);
  ++out.attempted;
  if (!loaded.ok()) {
    fail("LoadModel: " + loaded.status().ToString());
    return out;
  }
  nomad::serve::ServeOptions options;
  options.metrics = &registry;
  auto created = [&] {
    ScopedSpan span(tracer, "serve.Create", step_span.id());
    return ServeEngine::Create(std::move(loaded).value(), options);
  }();
  out.create_s = Seconds(s1, Clock::now());
  ++out.attempted;
  if (!created.ok()) {
    fail("ServeEngine::Create: " + created.status().ToString());
    return out;
  }
  std::unique_ptr<ServeEngine> engine = std::move(created).value();
  const int64_t users = engine->users();

  // ---- open-loop drive ----
  const double start = 5e-3;  // first query is due 5 ms after the origin
  const int64_t queries =
      std::max<int64_t>(1, static_cast<int64_t>(config.rate * config.seconds));
  // Past this time the step is overloaded: queries not yet started are
  // dropped and count as late as they were then.
  const double give_up = start + config.seconds + 4 * kSloMs * 1e-3;
  // The capacity window follows; ratings keep streaming in through it, so
  // the cache stays as cold as in the open-loop schedule.
  const double burst_end = give_up + config.capacity_seconds;
  const int64_t ratings =
      static_cast<int64_t>(kIngestPerSecond * (burst_end - start));
  out.offered = queries;
  out.reflect_ms.reserve(static_cast<size_t>(ratings));

  // Each query thread serves its own share of the schedule (queries t,
  // t + kQueryThreads, ...): it waits until a query is due, runs it and
  // times it from that due time, so a slow query delays the thread's later
  // ones as a queue would. Nothing is handed between threads, so no query
  // waits for a sleeping thread to be woken.
  std::atomic<int64_t> query_errors{0};
  // Per query, each slot written by one thread: latency from when it was
  // due, and how late the thread started it when it had been idle (NaN when
  // it was still busy with earlier queries).
  std::vector<double> latency(static_cast<size_t>(queries), std::nan(""));
  std::vector<double> lag(static_cast<size_t>(queries), std::nan(""));
  std::atomic<int64_t> burst_done{0};
  const Clock::time_point origin = Clock::now();
  std::vector<std::thread> threads;
  nomad::Rng rng(config.seed);
  std::vector<int32_t> query_users(static_cast<size_t>(queries));
  for (int32_t& u : query_users) {
    u = static_cast<int32_t>(rng.NextBelow(static_cast<uint64_t>(users)));
  }
  std::vector<nomad::Rating> applied_stream;
  applied_stream.reserve(static_cast<size_t>(ratings));
  std::vector<int32_t> check;  // users of the parity gate
  std::vector<nomad::Result<nomad::serve::TopNResult>> served;
  {
    RatingIngest ingest(engine.get(), 1);
    for (int t = 0; t < kQueryThreads; ++t) {
      threads.emplace_back([&, t] {
        double idle_since = 0.0;
        for (int64_t i = t; i < queries; i += kQueryThreads) {
          const double due = start + static_cast<double>(i) / config.rate;
          WaitUntil(origin, due, [] {});
          const double begin = Seconds(origin, Clock::now());
          if (begin > give_up) break;
          const size_t slot = static_cast<size_t>(i);
          if (idle_since <= due) lag[slot] = 1e3 * (begin - due);
          bool ok;
          {
            ScopedSpan span(tracer, "serve.TopN", step_span.id());
            ok = engine->TopN(query_users[slot], kTopN).ok();
          }
          if (!ok) query_errors.fetch_add(1, std::memory_order_relaxed);
          idle_since = Seconds(origin, Clock::now());
          latency[slot] = 1e3 * (idle_since - due);
        }
        if (config.capacity_seconds <= 0.0) return;
        // Closed loop: TopN back to back until the window ends; the
        // completions in it give the engine's saturation throughput.
        nomad::Rng thread_rng(config.seed + 101 * static_cast<uint64_t>(t + 1));
        WaitUntil(origin, give_up, [] {});
        for (;;) {
          const int32_t u = static_cast<int32_t>(
              thread_rng.NextBelow(static_cast<uint64_t>(users)));
          const bool ok = engine->TopN(u, kTopN).ok();
          if (Seconds(origin, Clock::now()) > burst_end) break;
          if (!ok) query_errors.fetch_add(1, std::memory_order_relaxed);
          burst_done.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }

    // This thread streams the ratings in on their own schedule.
    std::deque<PendingReflect> pending;
    auto poll_reflect = [&] {
      while (!pending.empty() &&
             engine->user_version(pending.front().user) >
                 pending.front().version_before) {
        out.reflect_ms.push_back(
            1e3 * (Seconds(origin, Clock::now()) - pending.front().submitted));
        pending.pop_front();
      }
    };
    const std::vector<nomad::Rating>& stream = *config.ingest;
    for (int64_t ri = 0; ri < ratings; ++ri) {
      const double due = start + static_cast<double>(ri) / kIngestPerSecond;
      WaitUntil(origin, due, poll_reflect);
      const double now = Seconds(origin, Clock::now());
      const nomad::Rating& r =
          stream[(config.ingest_offset + static_cast<size_t>(ri)) %
                 stream.size()];
      const uint64_t before = engine->user_version(r.row);
      nomad::Status s;
      {
        ScopedSpan span(tracer, "serve.Submit", step_span.id());
        s = ingest.Submit(r.row, r.col, r.value);
      }
      ++out.attempted;
      if (s.ok()) {
        pending.push_back({r.row, before, now});
        applied_stream.push_back(r);
      } else {
        fail("Submit: " + s.ToString());
      }
    }
    for (auto& th : threads) th.join();
    if (config.capacity_seconds > 0.0) {
      out.capacity_qps =
          static_cast<double>(burst_done.load()) / config.capacity_seconds;
      out.attempted += burst_done.load();
    }
    // Dropped queries count as late as they were when the step gave up.
    for (int64_t i = 0; i < queries; ++i) {
      double& l = latency[static_cast<size_t>(i)];
      if (std::isnan(l)) {
        l = 1e3 * (give_up - (start + static_cast<double>(i) / config.rate));
      } else {
        ++out.completed;
      }
    }
    ingest.Drain();
    poll_reflect();
    ingest.Stop();
    if (!pending.empty()) fail("ratings not reflected after Drain");
    const auto& obs = engine->observability();
    out.cache_hits = obs.cache_hits.Value();
    out.cache_misses = obs.cache_misses.Value();
    out.torn_retries = obs.torn_retries.Value();

    // ---- parity gate: quiesced engine vs offline replay ----
    // User 0, the users of the last ratings applied, and random users.
    check = {0};
    for (size_t i = applied_stream.size(); i > 0 && check.size() < 5; --i) {
      check.push_back(applied_stream[i - 1].row);
    }
    while (check.size() < 9) {
      check.push_back(static_cast<int32_t>(
          rng.NextBelow(static_cast<uint64_t>(users))));
    }
    // n = kTopN + 1 is never cached (queries ask for kTopN), so every
    // check rescans the quiesced rows.
    for (int32_t u : check) served.push_back(engine->TopN(u, kTopN + 1));
  }
  engine.reset();  // before the replay copy, so the two never coexist
  nomad::Model replay = *config.reference;
  const int k = replay.rank();
  for (const nomad::Rating& r : applied_stream) {
    nomad::ApplyIncrementalRating(static_cast<double>(r.value), options.update,
                                  replay.w.Row(r.row), replay.h.Row(r.col), k);
  }
  for (size_t i = 0; i < check.size(); ++i) {
    ++out.attempted;
    if (!served[i].ok() ||
        served[i].value().items != nomad::TopN(replay, check[i], kTopN + 1)) {
      fail("parity: served top-N differs from offline TopN for user " +
           std::to_string(check[i]));
    }
  }

  out.attempted += out.offered;
  const int64_t errs = query_errors.load();
  if (errs > 0) {
    out.failed += errs;
    if (out.error.empty()) out.error = "TopN returned an error";
  }
  std::vector<double> p50, p99;
  for (int w = 0; w < kWindows; ++w) {
    const size_t lo = latency.size() * w / kWindows;
    const size_t hi = latency.size() * (w + 1) / kWindows;
    if (hi == lo) continue;
    const std::vector<double> window(latency.begin() + lo, latency.begin() + hi);
    p50.push_back(Quantile(window, 0.50));
    p99.push_back(Quantile(window, 0.99));
  }
  for (size_t i = 0; i < lag.size(); ++i) {
    if (!std::isnan(lag[i])) out.lag_ms.push_back(lag[i]);
  }
  out.latency_ms = std::move(latency);
  out.p50_ms = Median(p50);
  out.p99_ms = Median(p99);
  // Within the SLO and without a growing backlog: by the last window the
  // typical query must still finish within the limit, and every query must
  // finish before the step gives up on it.
  out.meets_slo = out.p99_ms <= kSloMs && !p50.empty() &&
                  p50.back() <= kSloMs && out.completed == out.offered &&
                  out.failed == 0;
  return out;
}

}  // namespace nomadbench
