#include "nomad/batch_controller.h"

#include <algorithm>
#include <cmath>

namespace nomad {

int EffectiveMaxBatch(int64_t cols, int num_workers, int64_t requested) {
  const int64_t workers = std::max<int64_t>(1, num_workers);
  const int64_t hoard_cap = std::max<int64_t>(1, cols / (2 * workers));
  return static_cast<int>(std::max<int64_t>(
      1, std::min<int64_t>(requested, hoard_cap)));
}

BatchControllerConfig MakeBatchControllerConfig(int64_t cols, int num_workers,
                                                int64_t fixed_batch,
                                                int64_t max_request) {
  BatchControllerConfig config;
  config.max_batch = EffectiveMaxBatch(cols, num_workers, max_request);
  config.initial_batch = std::min(
      EffectiveMaxBatch(cols, num_workers, fixed_batch), config.max_batch);
  return config;
}

BatchController::BatchController(const BatchControllerConfig& config)
    : config_(config) {
  config_.min_batch = std::max(1, config_.min_batch);
  config_.max_batch = std::max(config_.min_batch, config_.max_batch);
  config_.additive_increase = std::max(1, config_.additive_increase);
  config_.multiplicative_decrease =
      std::clamp(config_.multiplicative_decrease, 0.0, 1.0);
  config_.lean_rounds_to_shrink = std::max(1, config_.lean_rounds_to_shrink);
  batch_ = std::clamp(config_.initial_batch, config_.min_batch,
                      config_.max_batch);
  min_seen_ = max_seen_ = batch_;
  trajectory_.emplace_back(0, batch_);
}

void BatchController::SetBatch(int next) {
  next = std::clamp(next, config_.min_batch, config_.max_batch);
  if (next == batch_) return;  // clamped no-ops count as neither grow nor
                               // shrink, so the stats reflect real changes
  if (next > batch_) {
    ++grows_;
  } else {
    ++shrinks_;
  }
  batch_ = next;
  min_seen_ = std::min(min_seen_, batch_);
  max_seen_ = std::max(max_seen_, batch_);
  if (static_cast<int>(trajectory_.size()) < config_.trajectory_limit) {
    trajectory_.emplace_back(rounds_, batch_);
  }
}

void BatchController::Observe(size_t requested, size_t popped,
                              size_t depth_after_pop) {
  ++rounds_;
  batch_round_sum_ += static_cast<double>(batch_);
  if (requested == 0) return;  // nothing was asked for; no signal
  if (popped == 0) {
    // Starved round: the queue was empty. Shrink so that when tokens do
    // arrive this worker takes a small bite and hands off quickly instead
    // of re-hoarding.
    lean_streak_ = 0;
    SetBatch(static_cast<int>(std::floor(
        static_cast<double>(batch_) * config_.multiplicative_decrease)));
    return;
  }
  const double hit_rate =
      static_cast<double>(popped) / static_cast<double>(requested);
  if (popped == requested &&
      static_cast<double>(depth_after_pop) >=
          config_.deep_queue_factor * static_cast<double>(batch_)) {
    // Deep-queue round: the batch filled and the backlog would sustain
    // several more like it — lock amortization is being left on the table.
    lean_streak_ = 0;
    SetBatch(batch_ + config_.additive_increase);
    return;
  }
  if (hit_rate < config_.starve_hit_rate) {
    // Lean round: the pop came up short. One is noise; a streak means the
    // worker outruns its token supply.
    if (++lean_streak_ >= config_.lean_rounds_to_shrink) {
      lean_streak_ = 0;
      SetBatch(static_cast<int>(std::floor(
          static_cast<double>(batch_) * config_.multiplicative_decrease)));
    }
    return;
  }
  lean_streak_ = 0;  // healthy round: full-ish pop, moderate backlog
}

void BatchController::NoteIdleBackoff() {
  ++backoffs_;
  SetBatch(static_cast<int>(std::floor(
      static_cast<double>(batch_) * config_.multiplicative_decrease)));
}

WorkerBatchStats BatchController::Stats(int worker) const {
  WorkerBatchStats s;
  s.worker = worker;
  s.final_batch = batch_;
  s.min_batch_seen = min_seen_;
  s.max_batch_seen = max_seen_;
  s.rounds = rounds_;
  s.grows = grows_;
  s.shrinks = shrinks_;
  s.backoffs = backoffs_;
  s.mean_batch = rounds_ > 0 ? batch_round_sum_ / static_cast<double>(rounds_)
                             : static_cast<double>(batch_);
  s.trajectory = trajectory_;
  return s;
}

}  // namespace nomad
