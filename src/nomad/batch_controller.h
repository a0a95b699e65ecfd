#ifndef NOMAD_NOMAD_BATCH_CONTROLLER_H_
#define NOMAD_NOMAD_BATCH_CONTROLLER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "solver/solver.h"

namespace nomad {

/// The hard upper bound both token-batch modes share: a worker may never
/// drain more than half of the average per-worker item share in one pop,
/// or a single worker could hoard most of the circulating tokens and
/// starve circulation on tiny problems. `requested` is the configured
/// batch (or auto-mode ceiling); the result is always >= 1, so degenerate
/// shapes (cols < workers, a single worker) still make progress
/// token-at-a-time.
int EffectiveMaxBatch(int64_t cols, int num_workers, int64_t requested);

/// Tuning knobs of the AIMD rule. The default step sizes balance the two
/// failure modes: growth of +2 per deep-queue round reclaims lock
/// amortization within a few rounds of a backlog forming, while the 0.75
/// decrease sheds a quarter of the batch per starvation signal — strong
/// enough that a starving worker drops to token-at-a-time in O(log batch)
/// signals, gentle enough that one scheduling hiccup does not erase a
/// well-earned batch (in a fixed-vs-auto hand-off sweep, halving made the
/// controller equilibrate visibly below the best fixed setting).
struct BatchControllerConfig {
  int min_batch = 1;   ///< Lower clamp; 1 = the paper's token-at-a-time.
  int max_batch = 32;  ///< Upper clamp (pass through EffectiveMaxBatch).
  /// Starting batch, clamped into [min_batch, max_batch]. Defaults to the
  /// historical fixed default so auto and fixed runs begin identically.
  int initial_batch = 8;
  /// Additive-increase step applied on a deep-queue round.
  int additive_increase = 2;
  /// Multiplicative-decrease factor applied on a starvation signal.
  double multiplicative_decrease = 0.75;
  /// A round counts as deep-queue (grow) when the batch filled completely
  /// AND the queue still held >= deep_queue_factor * batch tokens after
  /// the pop — i.e. the backlog would sustain several more such batches.
  double deep_queue_factor = 2.0;
  /// A partially-filled pop with hit rate (popped/requested) below this
  /// marks a lean round; `lean_rounds_to_shrink` consecutive lean rounds
  /// trigger one multiplicative decrease. A short fill or two is noise
  /// (another worker may be mid-handoff); a streak means the worker is
  /// draining its queue faster than tokens arrive.
  double starve_hit_rate = 0.5;
  int lean_rounds_to_shrink = 3;  ///< Consecutive lean rounds per shrink.
  /// At most this many (round, batch) change points are recorded in the
  /// adaptation trajectory; later changes still adjust the batch but stop
  /// being logged, bounding per-worker memory on long runs.
  int trajectory_limit = 1024;
};

/// The configuration a pool of `num_workers` workers sharing `cols` tokens
/// runs its controllers with. `max_batch` is the EffectiveMaxBatch clamp of
/// `max_request` (the auto-mode ceiling; fixed mode passes `fixed_batch`
/// itself), and `initial_batch` the clamped fixed batch, so auto runs
/// start exactly where fixed runs stay.
BatchControllerConfig MakeBatchControllerConfig(int64_t cols, int num_workers,
                                                int64_t fixed_batch,
                                                int64_t max_request);

/// Per-worker runtime autotuner for the NOMAD token-batch size.
///
/// The fixed `TrainOptions::token_batch_size` trades queue-lock
/// amortization (big batches) against circulation latency and hoarding
/// (small batches), but the right point depends on queue depth and
/// contention, which differ per worker and drift over a run. This
/// controller adjusts the pop/push batch inside [min_batch, max_batch]
/// from three cheap, purely-local signals observed at each hand-off round:
///
///  - approximate depth of the worker's own queue after the pop
///    (MpmcQueue::SizeEstimate — advisory, no lock),
///  - the TryPopBatch hit rate (popped / requested),
///  - idle-backoff escalations (the worker found its queue empty long
///    enough to start sleeping — the pop-side analogue of a failed push,
///    which the unbounded MpmcQueue cannot itself produce).
///
/// The rule is AIMD, the same shape TCP congestion control and the
/// adaptive hand-off tuning in lock-free queue runtimes use: grow
/// additively while the backlog proves the batch too small, shrink
/// multiplicatively (× multiplicative_decrease) on evidence of
/// starvation. Growth needs sustained deep queues; one bad signal undoes
/// several good ones, so the controller is biased toward keeping tokens
/// circulating rather than maximizing lock amortization.
///
/// The controller is deterministic: its batch sequence is a pure function
/// of the observed signal sequence (no clock, no RNG), which is what makes
/// auto-mode runs testable and replayable. It is not thread-safe; each
/// worker owns one instance.
class BatchController {
 public:
  explicit BatchController(const BatchControllerConfig& config = {});

  /// The batch size the next TryPopBatch should request.
  int batch() const { return batch_; }

  /// Feeds one hand-off round's signals: the worker requested `requested`
  /// tokens, popped `popped` (0 = starved round, one multiplicative
  /// decrease), and its queue held approximately `depth_after_pop` tokens
  /// afterwards. Callers choose what counts as a round: the shared-memory
  /// solver and the autotune bench skip empty polls (they would flood the
  /// controller during one scheduling gap) and report starvation through
  /// NoteIdleBackoff instead, while the simulator never produces an empty
  /// pop at all — the starved-round branch is the contract for callers
  /// without an idle-backoff notion.
  void Observe(size_t requested, size_t popped, size_t depth_after_pop);

  /// The worker escalated its idle backoff from yielding to sleeping: the
  /// queue has been empty for several consecutive polls. Applies one
  /// multiplicative decrease so the worker re-enters circulation with a
  /// smaller bite instead of draining the next arrivals wholesale.
  void NoteIdleBackoff();

  /// The (sanitized) configuration this controller runs with.
  const BatchControllerConfig& config() const { return config_; }

  /// Snapshot of the run so far, labelled with `worker`.
  WorkerBatchStats Stats(int worker) const;

 private:
  void SetBatch(int next);  // clamps, tracks extremes, logs the change

  BatchControllerConfig config_;
  int batch_ = 1;
  int min_seen_ = 1;
  int max_seen_ = 1;
  int lean_streak_ = 0;
  int64_t rounds_ = 0;
  int64_t grows_ = 0;
  int64_t shrinks_ = 0;
  int64_t backoffs_ = 0;
  double batch_round_sum_ = 0.0;  // sum of batch() over rounds, for the mean
  std::vector<std::pair<int64_t, int>> trajectory_;
};

}  // namespace nomad

#endif  // NOMAD_NOMAD_BATCH_CONTROLLER_H_
