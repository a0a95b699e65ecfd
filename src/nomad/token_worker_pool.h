#ifndef NOMAD_NOMAD_TOKEN_WORKER_POOL_H_
#define NOMAD_NOMAD_TOKEN_WORKER_POOL_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "data/shard.h"
#include "linalg/factor_matrix.h"
#include "nomad/batch_controller.h"
#include "nomad/row_ownership.h"
#include "nomad/token_router.h"
#include "obs/metrics.h"
#include "obs/solver_metrics.h"
#include "queue/mpmc_queue.h"
#include "solver/sgd_kernel.h"
#include "solver/solver.h"
#include "util/numa_topology.h"
#include "util/rng.h"

namespace nomad {

/// Hand-off policy of a pool whose tokens never leave the process (the
/// shared-memory solver). Every member is a constant, so the pool's
/// forwarding branch folds away. A policy for another transport supplies
/// the same four members.
struct LocalHandOff {
  struct Buffer {};  ///< What Encode writes a token into.
  /// Destination rank of a processed token, or -1 to keep it here.
  int PickRemote(Rng* /*rng*/) const { return -1; }
  /// Serializes token `j` into `buf`; called while the worker owns j.
  void Encode(int32_t /*j*/, Buffer* /*buf*/) const {}
  /// Sends an encoded token; false keeps it on this process after all.
  bool Send(int /*dest*/, const Buffer& /*buf*/) const { return false; }
};

/// NOMAD's token loop (Algorithm 1) and the state its workers share. One
/// pool runs the shared-memory solver and each rank of the distributed one.
///
/// Users are partitioned over `world × num_workers` global workers; the
/// pool runs the `num_workers` that belong to its rank. A worker pops a
/// batch of item tokens from its `MpmcQueue`, acquires each h_j in the
/// `RowOwnership` table, runs the fused SGD update over its ratings of
/// column j, releases j, and hands the token on: to the rank the `HandOff`
/// policy picks, or else through one `TokenRouter::PickBatch` and one
/// `PushBatch` per destination queue.
///
/// A forwarded token leaves in a fixed order: Encode while j is owned,
/// release j, then Send. A fast peer can bounce the token back into a
/// local queue before Send returns, and its next owner's `AcquireOrDie`
/// would trip if j were still held.
///
/// One driver thread controls the pool. `Pause` parks every worker; while
/// they are parked the driver may read and write the queues, the update
/// counter and `worker_globals`. `SetUpdatesCap` bounds the updates before
/// the next pause; workers check it per token, so a run overshoots it by
/// at most one column's ratings per worker.
template <typename Real, typename HandOff>
class TokenWorkerPool {
 public:
  /// Sets up `rank` of a `world`-rank job (`rank` -1: a shared-memory run,
  /// world 1, series without a rank label): user partition, column shards,
  /// NUMA placement per `options.numa_policy`, and the token scatter. The
  /// scatter draws over all global workers and keeps this rank's share, so
  /// every rank agrees where each token starts and world 1 matches the
  /// shared-memory scatter. `w`, `h`, `kernel`, `registry` and `handoff`
  /// must outlive the pool.
  TokenWorkerPool(const Dataset& ds, const TrainOptions& options, int world,
                  int rank, FactorMatrixT<Real>* w, FactorMatrixT<Real>* h,
                  const UpdateKernelT<Real>& kernel,
                  obs::MetricsRegistry* registry, HandOff* handoff)
      : p_(options.num_workers),
        rank_(rank),
        first_global_(std::max(rank, 0) * options.num_workers),
        seed_(options.seed),
        auto_batch_(options.token_batch_mode == TokenBatchMode::kAuto),
        w_(w),
        h_(h),
        kernel_(kernel),
        registry_(registry),
        handoff_(handoff),
        partition_(options.partition_by_ratings
                       ? UserPartition::ByRatings(ds.train, world * p_)
                       : UserPartition::ByRows(ds.rows, world * p_)),
        shards_(ColumnShards::Build(ds.train, partition_)),
        counts_(ds.train.nnz()),
        batch_config_(MakeBatchControllerConfig(
            ds.cols, world * p_, options.token_batch_size,
            auto_batch_ ? options.max_token_batch
                        : options.token_batch_size)),
        router_(options.routing, p_),
        owner_(ds.cols),
        worker_globals_(static_cast<size_t>(p_)),
        batch_stats_(static_cast<size_t>(p_)) {
    for (int q = 0; q < p_; ++q) {
      worker_globals_[static_cast<size_t>(q)].push_back(first_global_ + q);
      queues_.push_back(std::make_unique<MpmcQueue<int32_t>>());
    }
    PlaceOnNumaNodes(ds, options);
    Rng scatter(options.seed ^ 0xA5A5A5A5ULL);  // Algorithm 1 lines 7-10
    for (int32_t j = 0; j < ds.cols; ++j) {
      const int g = static_cast<int>(
          scatter.NextBelow(static_cast<uint64_t>(world * p_)));
      if (g / p_ == first_global_ / p_) {
        queues_[static_cast<size_t>(g % p_)]->Push(j);
      }
    }
    obs::Labels labels;
    if (rank >= 0) labels.emplace_back("rank", std::to_string(rank));
    router_.AttachMetrics(
        registry->GetCounter("nomad_router_local_picks_total", labels),
        registry->GetCounter("nomad_router_remote_picks_total", labels));
  }

  /// Stops and joins any running workers.
  ~TokenWorkerPool() { Stop(); }

  TokenWorkerPool(const TokenWorkerPool&) = delete;
  TokenWorkerPool& operator=(const TokenWorkerPool&) = delete;

  /// Launches the worker threads.
  void Start() {
    for (int q = 0; q < p_; ++q) threads_.emplace_back([this, q] { Run(q); });
  }

  /// Stops and joins the workers, parked or running. Idempotent.
  void Stop() {
    stop_.store(true, std::memory_order_relaxed);
    Resume();
    for (auto& t : threads_) t.join();
    threads_.clear();
  }

  /// Returns once every worker is parked between rounds. Training time
  /// excludes the pause: the driver takes trace points and runs its
  /// barrier protocol here.
  void Pause() {
    pause_requested_.store(true, std::memory_order_release);
    std::unique_lock<std::mutex> lock(pause_mu_);
    all_paused_.wait(lock, [this] { return paused_ == p_; });
  }

  /// Releases the parked workers.
  void Resume() {
    {
      std::lock_guard<std::mutex> lock(pause_mu_);
      pause_requested_.store(false, std::memory_order_release);
    }
    resumed_.notify_all();
  }

  /// Updates applied so far.
  int64_t updates() const { return updates_.load(std::memory_order_relaxed); }
  /// The update cap (default: none).
  int64_t updates_cap() const {
    return updates_cap_.load(std::memory_order_relaxed);
  }
  /// Sets the cap; past it, tokens keep circulating without updates.
  void SetUpdatesCap(int64_t cap) {
    updates_cap_.store(cap, std::memory_order_relaxed);
  }

  /// Worker `q`'s token queue.
  MpmcQueue<int32_t>& queue(int q) { return *queues_[static_cast<size_t>(q)]; }
  /// The user partition over all global workers.
  const UserPartition& partition() const { return partition_; }
  /// The column shards of all global workers.
  const ColumnShards& shards() const { return shards_; }
  /// Worker `q`'s node CPUs under NUMA placement; empty without it.
  const std::vector<std::vector<int>>& worker_cpus() const {
    return worker_cpus_;
  }
  /// The global workers whose ratings local worker `q` processes: its own,
  /// plus any a distributed driver adopted. Change only while parked.
  std::vector<int>& worker_globals(int q) {
    return worker_globals_[static_cast<size_t>(q)];
  }
  /// Per-worker token-batch adaptation; complete once Stop() returns.
  const std::vector<WorkerBatchStats>& batch_stats() const {
    return batch_stats_;
  }

 private:
  // Only a multi-node host with the policy enabled places anything;
  // elsewhere worker_cpus_ stays empty (no pinning, no page binding,
  // topology-blind router).
  void PlaceOnNumaNodes(const Dataset& ds, const TrainOptions& options) {
    if (options.numa_policy == NumaPolicy::kOff) return;
    const NumaTopology topo = NumaTopology::Detect();
    if (!topo.multi_node()) return;
    const std::vector<int> worker_node = topo.AssignWorkers(p_);
    std::vector<int> node_ids;  // kernel ids, for the mbind node masks
    for (const NumaNode& n : topo.nodes()) node_ids.push_back(n.id);
    for (int q = 0; q < p_; ++q) {
      worker_cpus_.push_back(
          topo.node(worker_node[static_cast<size_t>(q)]).cpus);
    }
    const size_t row_bytes =
        static_cast<size_t>(w_->stride()) * sizeof(Real);
    if (options.numa_policy == NumaPolicy::kAuto) {
      // A worker touches only its own w rows: bind them to its node. The h
      // rows circulate, so their pages are interleaved over all nodes, and
      // hand-offs are biased toward the sender's node.
      for (int q = 0; q < p_; ++q) {
        const int32_t begin = partition_.Begin(first_global_ + q);
        const int32_t end = partition_.End(first_global_ + q);
        if (end <= begin) continue;
        BindMemoryToNode(w_->Row(begin),
                         static_cast<size_t>(end - begin) * row_bytes,
                         topo.node(worker_node[static_cast<size_t>(q)]).id);
      }
      router_.MakeNumaAware(worker_node);
    } else {  // NumaPolicy::kInterleave spreads bandwidth, not locality
      InterleaveMemory(w_->Row(0), static_cast<size_t>(ds.rows) * row_bytes,
                       node_ids);
    }
    InterleaveMemory(h_->Row(0), static_cast<size_t>(ds.cols) * row_bytes,
                     node_ids);
  }

  // Worker side of Pause: blocks between rounds while a pause is active.
  void CheckIn() {
    if (!pause_requested_.load(std::memory_order_acquire)) return;
    std::unique_lock<std::mutex> lock(pause_mu_);
    ++paused_;
    all_paused_.notify_all();
    resumed_.wait(lock, [this] {
      return !pause_requested_.load(std::memory_order_acquire);
    });
    --paused_;
  }

  void Run(int q) {
    if (!worker_cpus_.empty()) {
      PinCurrentThreadToCpus(worker_cpus_[static_cast<size_t>(q)]);
    }
    // Seeded by global worker id: no two workers of a job share a stream.
    Rng rng(seed_ + 7919ULL * static_cast<uint64_t>(first_global_ + q + 1));
    // Fixed mode never feeds the controller, so batch() stays the fixed
    // batch; auto mode adapts it from queue depth, hit rate and backoffs.
    BatchController controller(batch_config_);
    // The single accumulation path behind the live scrape and this run's
    // WorkerBatchStats (Finish() views the same registry cells).
    obs::WorkerObs wobs =
        obs::WorkerObs::Create(registry_, rank_, q, controller.batch());
    MpmcQueue<int32_t>& inbox = *queues_[static_cast<size_t>(q)];
    const size_t max_batch = static_cast<size_t>(batch_config_.max_batch);
    std::vector<int32_t> tokens(max_batch);
    std::vector<int> dests(max_batch);
    // Tokens bound for the same queue leave in one PushBatch.
    std::vector<std::vector<int32_t>> outbound(static_cast<size_t>(p_));
    for (auto& buf : outbound) buf.reserve(max_batch);
    typename HandOff::Buffer frame;
    // Queue sizes are advisory (Sec. 3.3): the probe reads the lock-free
    // estimate instead of taking the destination queue's mutex.
    const TokenRouter::SizeProbe probe = [this](int d) {
      return queues_[static_cast<size_t>(d)]->SizeEstimate();
    };
    int idle_streak = 0;
    // Latency histograms: two clock reads per round, none when the
    // registry is off. wait_start runs from the previous round's end to
    // the next non-empty pop.
    using LatencyClock = std::chrono::steady_clock;
    const bool timed = wobs.enabled();
    LatencyClock::time_point wait_start =
        timed ? LatencyClock::now() : LatencyClock::time_point();
    while (!stop_.load(std::memory_order_relaxed)) {
      CheckIn();
      // The driver may have taken the final trace point during the pause;
      // an update after it would make the factors disagree with the trace.
      if (stop_.load(std::memory_order_relaxed)) break;
      const int want = controller.batch();
      const size_t got =
          inbox.TryPopBatch(tokens.data(), static_cast<size_t>(want));
      if (got == 0) {
        // Yield first (a token usually arrives within a quantum), then
        // sleep 1..128 µs. The yield→sleep escalation is the controller's
        // one starvation signal per idle episode.
        if (idle_streak < 4) {
          std::this_thread::yield();
        } else {
          if (idle_streak == 4) {
            if (auto_batch_) controller.NoteIdleBackoff();
            wobs.NoteBackoff(controller.batch());
          }
          const int shift = std::min(idle_streak - 4, 7);
          std::this_thread::sleep_for(std::chrono::microseconds(1 << shift));
        }
        ++idle_streak;
        continue;
      }
      idle_streak = 0;
      LatencyClock::time_point work_start;
      if (timed) {
        work_start = LatencyClock::now();
        wobs.ObserveQueueWaitSeconds(
            std::chrono::duration<double>(work_start - wait_start).count());
      }
      const size_t depth = auto_batch_ || timed ? inbox.SizeEstimate() : 0;
      if (auto_batch_) controller.Observe(static_cast<size_t>(want), got, depth);
      // Sampled after every controller interaction, so the registry view
      // stays bit-identical to controller.Stats().
      wobs.ObserveRound(static_cast<size_t>(want), got, depth,
                        controller.batch());
      size_t local_n = 0;  // tokens staying on this process, compacted
      for (size_t b = 0; b < got; ++b) {
        const int32_t j = tokens[b];
        owner_.AcquireOrDie(j, q);
        // Past the cap the token hops on unprocessed until the driver
        // pauses everyone and raises it.
        if (updates_.load(std::memory_order_relaxed) <
            updates_cap_.load(std::memory_order_relaxed)) {
          Real* hj = h_->Row(j);
          int32_t applied = 0;
          for (int g : worker_globals_[static_cast<size_t>(q)]) {
            int32_t n = 0;
            const ColumnShards::Entry* entries = shards_.ColEntries(g, j, &n);
            for (int32_t t = 0; t < n; ++t) {
              const ColumnShards::Entry& e = entries[t];
              kernel_.Apply(e.value, &counts_, e.csc_pos, w_->Row(e.row), hj);
            }
            applied += n;
          }
          if (applied > 0) {
            updates_.fetch_add(applied, std::memory_order_relaxed);
            wobs.NoteUpdates(applied);
          }
        }
        const int dest = handoff_->PickRemote(&rng);
        if (dest >= 0) handoff_->Encode(j, &frame);
        owner_.Release(j);
        if (dest < 0 || !handoff_->Send(dest, frame)) tokens[local_n++] = j;
      }
      if (local_n > 0) {
        router_.PickBatch(q, &rng, probe, static_cast<int>(local_n),
                          dests.data());
        for (size_t b = 0; b < local_n; ++b) {
          outbound[static_cast<size_t>(dests[b])].push_back(tokens[b]);
        }
        for (int d = 0; d < p_; ++d) {
          auto& buf = outbound[static_cast<size_t>(d)];
          if (buf.empty()) continue;
          queues_[static_cast<size_t>(d)]->PushBatch(buf.data(), buf.size());
          buf.clear();
        }
        wobs.NotePushed(static_cast<int64_t>(local_n));
      }
      if (timed) {
        const LatencyClock::time_point round_end = LatencyClock::now();
        wobs.ObserveServiceSeconds(
            std::chrono::duration<double>(round_end - work_start).count() /
            static_cast<double>(got));
        wait_start = round_end;
      }
    }
    // Exclusive slot, read by the driver only after the join.
    batch_stats_[static_cast<size_t>(q)] =
        wobs.Finish(auto_batch_ ? &controller : nullptr, controller.batch());
  }

  const int p_;
  const int rank_;
  const int first_global_;  // global id of local worker 0
  const uint64_t seed_;
  const bool auto_batch_;
  FactorMatrixT<Real>* const w_;
  FactorMatrixT<Real>* const h_;
  const UpdateKernelT<Real>& kernel_;
  obs::MetricsRegistry* const registry_;
  HandOff* const handoff_;
  const UserPartition partition_;
  const ColumnShards shards_;
  StepCounts counts_;
  const BatchControllerConfig batch_config_;
  TokenRouter router_;
  std::atomic<bool> pause_requested_{false};
  std::mutex pause_mu_;
  std::condition_variable all_paused_;
  std::condition_variable resumed_;
  int paused_ = 0;  // guarded by pause_mu_
  // Asserts the invariant behind NOMAD's lock-freedom and serializability:
  // no token (hence no h_j) is held by two workers at once. A failed
  // acquire is a broken invariant, not contention.
  RowOwnership owner_;
  std::vector<std::vector<int>> worker_globals_;
  std::vector<std::vector<int>> worker_cpus_;
  std::vector<std::unique_ptr<MpmcQueue<int32_t>>> queues_;
  std::vector<WorkerBatchStats> batch_stats_;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> updates_{0};
  std::atomic<int64_t> updates_cap_{std::numeric_limits<int64_t>::max()};
  std::vector<std::thread> threads_;
};

}  // namespace nomad

#endif  // NOMAD_NOMAD_TOKEN_WORKER_POOL_H_
