#include "net/dist_nomad.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "eval/metrics.h"
#include "net/codec.h"
#include "net/loopback_transport.h"
#include "net/wire_format.h"
#include "nomad/token_worker_pool.h"
#include "obs/metrics.h"
#include "solver/run_recorder.h"
#include "solver/sgd_kernel.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace nomad {
namespace net {

namespace {

/// Version headroom added when a lost token is re-granted: the dead rank
/// may have advanced the token's hop counter past what any survivor saw,
/// and the re-granted version must dominate every counter that could still
/// be in flight. Tokens hop a handful of times per epoch, so a million is
/// unreachable headroom for any real run (and the wire-level regrant flag
/// makes receivers accept the reset unconditionally anyway).
constexpr uint32_t kRegrantVersionBump = 1u << 20;

/// How many times a failed (Unavailable) send is retried — with
/// exponential backoff — before the sender gives up: a worker keeps the
/// token local, the driver escalates. Absorbs transient transport drops
/// (see net/fault_transport.h) without any acknowledgement protocol.
constexpr int kSendRetryLimit = 5;

/// One rank's training run for one storage precision. The workers are the
/// shared-memory solver's TokenWorkerPool (nomad/token_worker_pool.h) with
/// a RemoteHandOff policy; what is distributed is that policy and the
/// driver, which pumps the transport and coordinates the cross-rank
/// barrier protocol of docs/ARCHITECTURE.md ("Distributed layer").
template <typename Real>
class RankRun {
 public:
  RankRun(const Dataset& ds, const DistNomadOptions& options,
          Transport* transport, const UpdateKernelT<Real>& kernel,
          CodecTransport* codec = nullptr)
      : ds_(ds),
        o_(options),
        opt_(options.train),
        transport_(transport),
        codec_(codec),
        world_(transport->world()),
        rank_(transport->rank()),
        p_(options.train.num_workers),
        k_(options.train.rank),
        kernel_(kernel),
        driver_rng_(options.train.seed ^ 0xD157D157ULL),
        version_(static_cast<size_t>(ds.cols)) {}

  Result<TrainResult> Run() {
    InitFactorsT<Real>(ds_, opt_, &w_, &h_);
    result_.solver_name = "dist_nomad";
    result_.precision = opt_.precision;
    // Observability handles. Every series carries rank="r" so a loopback
    // world sharing one process-wide registry keeps the ranks apart.
    obs::MetricsRegistry* resolved = obs::ResolveRegistry(opt_.metrics);
    registry_ = resolved->enabled() ? resolved : &fallback_registry_;
    recorder_.emplace(ds_, opt_, &result_, registry_,
                      /*caller_timeline=*/rank_ == 0);
    // A degenerate problem has no tokens to circulate. Every rank holds
    // the full dataset, so all ranks take this branch consistently and
    // skip the protocol entirely.
    if (!recorder_->TraceIfEmpty(w_, h_)) {
      Setup();
      wall_.Restart();
      pool_->Start();
      const Status driver = DriveToCompletion();
      pool_->Stop();
      NOMAD_RETURN_IF_ERROR(driver);
      recorder_->Finish();
      result_.total_updates = global_updates_;
      result_.total_seconds = global_seconds_;
      result_.worker_batch = pool_->batch_stats();
      result_.rank_traffic = std::move(rank_traffic_);
      for (int r = 0; r < world_; ++r) {
        if (!IsLive(r)) result_.dead_ranks.push_back(r);
      }
    }
    StoreTrainedFactors(std::move(w_), std::move(h_), &result_);
    return std::move(result_);
  }

 private:
  // ---- setup ----

  void Setup() {
    pool_ = std::make_unique<TokenWorkerPool<Real, RemoteHandOff>>(
        ds_, opt_, world_, rank_, &w_, &h_, kernel_, registry_, &handoff_);

    // Global-worker ownership starts at the static partition and grows when
    // this rank adopts a dead rank's workers during recovery; evaluation
    // and the final gather walk every owned global's user range.
    dead_.assign(static_cast<size_t>(world_), 0);
    seen_hrow_ids_.assign(static_cast<size_t>(world_), {});
    RecomputeOwnership();
    next_threshold_ = local_epoch_updates_;

    // Budget lease: with an update budget B (max_updates, else max_epochs
    // passes), each rank starts with an equal share as its local cap; rank
    // 0 re-leases the remainder at every barrier (kResume.held), so the job
    // stops within a token batch of B instead of overshooting by up to an
    // epoch.
    const int64_t budget = recorder_->update_budget();
    if (budget > 0) {
      pool_->SetUpdatesCap(budget / world_ + (rank_ < budget % world_ ? 1 : 0));
    }

    remote_prob_ = o_.remote_token_fraction;
    if (remote_prob_ < 0) {
      remote_prob_ = static_cast<double>(world_ - 1) /
                     static_cast<double>(world_);
    }
    if (world_ == 1) remote_prob_ = 0.0;

    // Sized up front: a fast peer's h-row broadcast can land while this
    // rank is still in the conservation phase of the same barrier, so Pump
    // must be able to count it at any time.
    hrow_received_.assign(static_cast<size_t>(world_), 0);
    wrow_received_.assign(static_cast<size_t>(world_), 0);

    const obs::Labels rl = {{"rank", std::to_string(rank_)}};
    tokens_sent_ = registry_->GetCounter("nomad_dist_tokens_sent_total", rl);
    tokens_received_ =
        registry_->GetCounter("nomad_dist_tokens_received_total", rl);
    tokens_sent0_ = tokens_sent_.Value();
    tokens_received0_ = tokens_received_.Value();
    send_retries_ =
        registry_->GetCounter("nomad_dist_send_retries_total", rl);
    heartbeat_misses_ =
        registry_->GetCounter("nomad_dist_heartbeat_misses_total", rl);
    regrants_ = registry_->GetCounter("nomad_dist_regrants_total", rl);
    stale_tokens_ =
        registry_->GetCounter("nomad_dist_stale_tokens_total", rl);
    dead_frames_ = registry_->GetCounter("nomad_dist_dead_frames_total", rl);
    tx_frames_.resize(static_cast<size_t>(world_));
    tx_bytes_.resize(static_cast<size_t>(world_));
    rx_frames_.resize(static_cast<size_t>(world_));
    rx_bytes_.resize(static_cast<size_t>(world_));
    peer_alive_.resize(static_cast<size_t>(world_));
    for (int r = 0; r < world_; ++r) {
      if (r == rank_) continue;  // self slots stay null handles
      obs::Labels pl = rl;
      pl.emplace_back("peer", std::to_string(r));
      tx_frames_[static_cast<size_t>(r)] =
          registry_->GetCounter("nomad_dist_tx_frames_total", pl);
      tx_bytes_[static_cast<size_t>(r)] =
          registry_->GetCounter("nomad_dist_tx_bytes_total", pl);
      rx_frames_[static_cast<size_t>(r)] =
          registry_->GetCounter("nomad_dist_rx_frames_total", pl);
      rx_bytes_[static_cast<size_t>(r)] =
          registry_->GetCounter("nomad_dist_rx_bytes_total", pl);
      peer_alive_[static_cast<size_t>(r)] =
          registry_->GetGauge("nomad_dist_peer_alive", pl);
      peer_alive_[static_cast<size_t>(r)].Set(1);
    }
    recovery_generation_ =
        registry_->GetGauge("nomad_dist_recovery_generation", rl);
    barrier_epoch_ = registry_->GetGauge("nomad_dist_barrier_epoch", rl);
    updates_per_second_ =
        registry_->GetGauge("nomad_dist_updates_per_second", rl);
    transport_bytes_sent_ =
        registry_->GetGauge("nomad_dist_transport_bytes_sent", rl);
    transport_bytes_received_ =
        registry_->GetGauge("nomad_dist_transport_bytes_received", rl);
    transport_msgs_sent_ =
        registry_->GetGauge("nomad_dist_transport_messages_sent", rl);
    transport_msgs_received_ =
        registry_->GetGauge("nomad_dist_transport_messages_received", rl);
    pump_latency_ = registry_->GetHistogram(
        "nomad_dist_pump_round_latency_seconds", obs::kLatencyBounds, rl);
  }

  // ---- the pool's hand-off policy ----

  /// Sends a processed token to a random live remote rank with probability
  /// remote_prob_, carrying h_j and its bumped hop version; everything else
  /// about the worker loop is TokenWorkerPool's. Called from the workers.
  struct RemoteHandOff {
    using Buffer = std::vector<uint8_t>;
    RankRun* run;

    int PickRemote(Rng* rng) const {
      const int world = run->world_;
      if (world == 1 || !(rng->NextDouble() < run->remote_prob_)) return -1;
      const auto draw = [&] {  // uniform over the other ranks
        const int d =
            static_cast<int>(rng->NextBelow(static_cast<uint64_t>(world - 1)));
        return d >= run->rank_ ? d + 1 : d;
      };
      int dest = draw();
      // Route around latched-dead ranks. The mask is advisory (a stale read
      // only costs a retried send), and redrawing keeps the pick uniform
      // over the survivors.
      if (world <= 64) {
        const uint64_t mask = run->dead_mask_.load(std::memory_order_relaxed);
        for (int tries = 0; tries < 4 && ((mask >> dest) & 1); ++tries) {
          dest = draw();
        }
        if ((mask >> dest) & 1) return -1;  // no live remote drawn
      }
      return dest;
    }

    // The frame is the hand-off: the pool calls this while the worker still
    // owns j, so nobody touches the row mid-encode.
    void Encode(int32_t j, Buffer* frame) const {
      const uint32_t v = run->version_[static_cast<size_t>(j)].fetch_add(
                             1u, std::memory_order_relaxed) +
                         1u;
      EncodeFactorRow<Real>(MsgType::kToken, j, v, run->h_.Row(j), run->k_,
                            frame);
    }

    // A lost frame would un-conserve the token and wedge the next barrier,
    // so transient failures are retried; a peer that stays unreachable is
    // the recovery layer's problem and the token stays local meanwhile.
    bool Send(int dest, const Buffer& frame) const {
      if (!run->SendWithRetry(dest, frame).ok()) return false;
      run->tokens_sent_.Inc();
      return true;
    }
  };

  // ---- transport pump ----

  /// Drains every pending frame: tokens land in the local queues (or the
  /// barrier-held list), h/w rows are applied, control frames queue up for
  /// the protocol code. Returns an error on an undecodable frame. Each
  /// round is timed into the pump latency histogram — Pump runs on the
  /// driver/protocol path (every wait loop), never inside a worker's
  /// token loop, so the two clock reads cost nothing the paper's hot path
  /// would notice.
  Status Pump() {
    const auto t0 = std::chrono::steady_clock::now();
    const Status s = PumpFrames();
    pump_latency_.Observe(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
    return s;
  }

  Status PumpFrames() {
    if (codec_ != nullptr) {
      // Push out (and keep retrying) any coalesced token batches: every
      // wait loop of the protocol pumps, so buffered tokens never stall a
      // barrier's conservation census. A flush that keeps failing is a
      // peer-liveness problem — the death watch owns those, so the status
      // is advisory here.
      (void)codec_->FlushAll();
    }
    std::vector<uint8_t> frame;
    int src = -1;
    while (transport_->TryReceive(&frame, &src)) {
      if (src >= 0 && src < world_) {
        rx_frames_[static_cast<size_t>(src)].Inc();
        rx_bytes_[static_cast<size_t>(src)].Inc(
            static_cast<int64_t>(frame.size()));
      }
      if (src >= 0 && src < world_ && dead_[static_cast<size_t>(src)]) {
        // Leftovers of a latched-dead rank (loopback inboxes outlive the
        // death; TCP can hand over buffered frames). They must not
        // resurrect tokens the recovery already re-granted.
        dead_frames_.Inc();
        continue;
      }
      auto type = PeekType(frame.data(), frame.size());
      if (!type.ok()) return type.status();
      switch (type.value()) {
        case MsgType::kToken:
        case MsgType::kHRow: {
          auto view = DecodeFactorRow<Real>(frame.data(), frame.size());
          if (!view.ok()) return view.status();
          const FactorRowView<Real>& row = view.value();
          if (row.k != k_ || row.id >= ds_.cols) {
            return Status::InvalidArgument(
                "factor row shape mismatch from rank " + std::to_string(src));
          }
          const size_t j = static_cast<size_t>(row.id);
          if (type.value() == MsgType::kToken) {
            const bool regrant = (row.flags & kFactorRowFlagRegrant) != 0;
            if (regrant) {
              // Authoritative re-materialization of a token lost with a
              // dead rank: accept unconditionally, version reset included.
              regrants_.Inc();
            } else if (row.version <=
                       version_[j].load(std::memory_order_relaxed)) {
              // Exclusive ownership makes the hop counter strictly
              // monotone, so a version that does not advance is a replayed
              // or duplicated frame (an injected fault, or a retried send
              // whose first copy did arrive). The live token is elsewhere;
              // discard this copy.
              stale_tokens_.Inc();
              break;
            }
            version_[j].store(row.version, std::memory_order_relaxed);
            std::copy(row.values, row.values + k_, h_.Row(row.id));
            tokens_received_.Inc();
            if (in_barrier_) {
              held_.push_back(row.id);
            } else {
              pool_->queue(static_cast<int>(
                      driver_rng_.NextBelow(static_cast<uint64_t>(p_))))
                  .Push(row.id);
            }
          } else {
            // State broadcast, not a hand-off: the holder's copy is
            // canonical, and its version can equal ours (the token may not
            // have moved since the last barrier). A *stale* broadcast — a
            // replay from a barrier a death aborted — is skipped but still
            // counted, since the sender's kHRowDone count includes it.
            if (row.version >= version_[j].load(std::memory_order_relaxed)) {
              version_[j].store(row.version, std::memory_order_relaxed);
              std::copy(row.values, row.values + k_, h_.Row(row.id));
            }
            ++hrow_received_[static_cast<size_t>(src)];
            if (record_hrow_ids_) {
              seen_hrow_ids_[static_cast<size_t>(src)].push_back(row.id);
            }
          }
          break;
        }
        case MsgType::kWRow: {
          auto view = DecodeFactorRow<Real>(frame.data(), frame.size());
          if (!view.ok()) return view.status();
          const FactorRowView<Real>& row = view.value();
          if (row.k != k_ || row.id >= ds_.rows || rank_ != 0) {
            return Status::InvalidArgument(
                "unexpected w-row from rank " + std::to_string(src));
          }
          std::copy(row.values, row.values + k_, w_.Row(row.id));
          ++wrow_received_[static_cast<size_t>(src)];
          break;
        }
        case MsgType::kControl: {
          auto ctrl = DecodeControl(frame.data(), frame.size());
          if (!ctrl.ok()) return ctrl.status();
          // The wire codec cannot know the world size, so the rank field is
          // bounds-checked here — every barrier phase indexes world-sized
          // tables with it, and a desynced or hostile peer must produce a
          // clean error, not an out-of-bounds write.
          if (ctrl.value().rank < 0 || ctrl.value().rank >= world_) {
            return Status::InvalidArgument(
                "control frame claims rank " +
                std::to_string(ctrl.value().rank) + " outside world " +
                std::to_string(world_));
          }
          if (ctrl.value().kind == ControlKind::kLeaseSync) {
            // Recovery flush marker: per-channel FIFO makes it the exact
            // boundary between the sender's pre-death traffic and its
            // census re-broadcast, so the sender's h-row bookkeeping resets
            // *here* — not in a later phase, which would also wipe census
            // frames that arrived in the same drain as the marker.
            hrow_received_[static_cast<size_t>(src)] = 0;
            if (record_hrow_ids_) {
              seen_hrow_ids_[static_cast<size_t>(src)].clear();
            }
            for (auto it = ctrl_q_.begin(); it != ctrl_q_.end();) {
              if (it->kind == ControlKind::kHRowDone && it->rank == src) {
                it = ctrl_q_.erase(it);  // predates the marker: stale
              } else {
                ++it;
              }
            }
          }
          ctrl_q_.push_back(ctrl.value());
          break;
        }
        case MsgType::kBatch:
          // Bundles are unwrapped inside a negotiated CodecTransport; one
          // surfacing raw means the sender runs a batch codec and this
          // rank does not. The TCP hello prevents that; loopback trusts
          // the launch, so report the misconfiguration cleanly.
          return Status::InvalidArgument(
              "batch frame from rank " + std::to_string(src) +
              " without a negotiated wire codec");
        case MsgType::kHello:
          return Status::InvalidArgument("unexpected hello mid-run");
      }
    }
    return Status::OK();
  }

  /// Pops the first queued control frame of `kind`; other kinds stay put
  /// (e.g. an early next-epoch BarrierRequest waits for the outer loop).
  bool TakeCtrl(ControlKind kind, ControlFrame* out) {
    for (auto it = ctrl_q_.begin(); it != ctrl_q_.end(); ++it) {
      if (it->kind == kind) {
        *out = *it;
        ctrl_q_.erase(it);
        return true;
      }
    }
    return false;
  }

  // ---- liveness bookkeeping + fault-aware sends ----

  bool IsLive(int r) const { return dead_[static_cast<size_t>(r)] == 0; }

  int LiveCount() const {
    int live = 0;
    for (int r = 0; r < world_; ++r) live += IsLive(r) ? 1 : 0;
    return live;
  }

  std::vector<int> LiveRanks() const {
    std::vector<int> live;
    for (int r = 0; r < world_; ++r) {
      if (IsLive(r)) live.push_back(r);
    }
    return live;
  }

  void LatchDead(int r) {
    if (r < 0 || r >= world_ || r == rank_ || !IsLive(r)) return;
    dead_[static_cast<size_t>(r)] = 1;
    peer_alive_[static_cast<size_t>(r)].Set(0);
    if (world_ <= 64) {
      dead_mask_.fetch_or(1ull << r, std::memory_order_relaxed);
    }
    NOMAD_LOG(kWarning) << "dist_nomad rank " << rank_ << ": rank " << r
                        << " latched dead";
  }

  /// Reads the transport's liveness verdict for `r`, counting each dead
  /// verdict as a heartbeat miss — the scrapeable trail of the failure
  /// detector's decisions. Call sites either sit behind IsLive (so a
  /// latched death counts once, not once per poll) or abort the rank on
  /// the spot (the rank-0-is-dead check).
  bool PeerDead(int r) {
    if (transport_->peer_status(r) != PeerStatus::kDead) return false;
    heartbeat_misses_.Inc();
    return true;
  }

  /// The one death no survivor recovers from: rank 0 coordinates every
  /// barrier and recovery, so a rank that loses it aborts.
  Status RankZeroUnreachable() const {
    return Status::IOError(
        "rank " + std::to_string(rank_) +
        ": rank 0 is unreachable — unrecoverable, aborting");
  }

  /// Sends with bounded retry + exponential backoff on transient
  /// (Unavailable) failures; any other error — and exhausted retries —
  /// surfaces to the caller.
  Status SendWithRetry(int dest, const std::vector<uint8_t>& buf) {
    Status s;
    for (int attempt = 0;; ++attempt) {
      s = transport_->Send(dest, buf);  // copy: retries reuse the bytes
      if (s.ok()) {
        tx_frames_[static_cast<size_t>(dest)].Inc();
        tx_bytes_[static_cast<size_t>(dest)].Inc(
            static_cast<int64_t>(buf.size()));
      }
      if (s.ok() || attempt >= kSendRetryLimit ||
          s.code() != StatusCode::kUnavailable) {
        return s;
      }
      send_retries_.Inc();
      std::this_thread::sleep_for(
          std::chrono::microseconds(100u << (attempt < 6 ? attempt : 6)));
    }
  }

  Status SendCtrl(int dest, const ControlFrame& frame) {
    std::vector<uint8_t> buf;
    EncodeControl(frame, &buf);
    return SendWithRetry(dest, buf);
  }

  /// Broadcast to the live ranks only. A peer that stays Unavailable
  /// through all retries is presumed dying: rank 0 latches it dead on the
  /// spot (the heartbeat verdict confirms shortly) and reports Unavailable
  /// so the caller escalates to recovery; other ranks skip it and leave
  /// the declaration to rank 0 — unless the unreachable peer is rank 0
  /// itself, which is unrecoverable.
  Status BroadcastLive(const std::vector<uint8_t>& buf) {
    Status escalate = Status::OK();
    for (int r = 0; r < world_; ++r) {
      if (r == rank_ || !IsLive(r)) continue;
      Status s = SendWithRetry(r, buf);
      if (s.ok()) continue;
      if (s.code() != StatusCode::kUnavailable) return s;
      if (rank_ == 0) {
        LatchDead(r);
        death_pending_ = true;
        escalate = s;
      } else if (r == 0) {
        return RankZeroUnreachable();
      }
    }
    return escalate;
  }

  Status BroadcastCtrl(const ControlFrame& frame) {
    std::vector<uint8_t> buf;
    EncodeControl(frame, &buf);
    return BroadcastLive(buf);
  }

  // ---- the wait primitive ----

  /// What a wait's death watch does with a death — one mode per kind of
  /// protocol phase.
  struct Watch {
    enum Mode {
      kBarrier,   ///< A pending death unwinds the phase as Unavailable.
      kRecovery,  ///< Only a death newer than generation `gen` unwinds.
      kGather,    ///< Dead ranks are only latched: training is over.
    };
    Mode mode = kBarrier;
    int gen = 0;  ///< kRecovery: the generation the attempt runs.
  };

  /// The driver's death watch, run by every wait. Rank 0 reads the
  /// transport's liveness verdicts and is the only authority that declares
  /// a death; everyone else learns through its kDeathNotice frames, and
  /// aborts if rank 0 itself is gone. In a barrier a death unwinds the
  /// phase back to DriveToCompletion, and keeps doing so while it is
  /// pending recovery; in a recovery only a death the running generation
  /// does not cover unwinds, back to RunRecovery, which restarts with the
  /// larger dead set.
  Status WatchDeaths(Watch watch) {
    if (world_ == 1) return Status::OK();
    bool fresh = false;
    if (rank_ == 0) {
      for (int r = 1; r < world_; ++r) {
        if (IsLive(r) && PeerDead(r)) {
          LatchDead(r);
          fresh = true;
        }
      }
    } else {
      if (PeerDead(0)) return RankZeroUnreachable();
      ControlFrame notice;
      while (TakeCtrl(ControlKind::kDeathNotice, &notice)) {
        LatchDead(static_cast<int>(notice.count));
        notice_gen_ = std::max(notice_gen_, static_cast<int>(notice.epoch));
        notice_epoch_ = std::max<int64_t>(notice_epoch_, notice.held);
        if (notice.epoch > watch.gen) fresh = true;
      }
    }
    switch (watch.mode) {
      case Watch::kBarrier:
        death_pending_ = death_pending_ || fresh;
        return death_pending_
                   ? Status::Unavailable("rank death pending recovery")
                   : Status::OK();
      case Watch::kRecovery:
        return fresh ? Status::Unavailable("death during recovery")
                     : Status::OK();
      case Watch::kGather:
        break;
    }
    return Status::OK();
  }

  /// The protocol's one wait: pumps the transport, runs the death watch
  /// and calls `poll` (returning bool, or Result<bool> when it can fail)
  /// until it reports done, napping between rounds. The final gather
  /// watches after polling: rank 0 closes its transport right after
  /// broadcasting kShutdown, so the frame and the connection teardown race
  /// — TCP delivers the frame first, but one Pump() can surface both at
  /// once, and the frame must win over the liveness verdict.
  template <typename Poll>
  Status Await(Watch watch, Poll poll) {
    const bool watch_first = watch.mode != Watch::kGather;
    for (;;) {
      NOMAD_RETURN_IF_ERROR(Pump());
      if (watch_first) NOMAD_RETURN_IF_ERROR(WatchDeaths(watch));
      const Result<bool> done = poll();
      if (!done.ok()) return done.status();
      if (done.value()) return Status::OK();
      if (!watch_first) NOMAD_RETURN_IF_ERROR(WatchDeaths(watch));
      Nap();
    }
  }

  /// Pops the next queued frame of `kind` a wait accepts. The recovery
  /// frames kLeaseSync and kTokenRegrant carry their generation in
  /// `epoch`; one of another generation is a leftover of a superseded
  /// attempt and is dropped.
  bool TakeFor(Watch watch, ControlKind kind, ControlFrame* out) {
    const bool by_gen = kind == ControlKind::kLeaseSync ||
                        kind == ControlKind::kTokenRegrant;
    while (TakeCtrl(kind, out)) {
      if (!by_gen || out->epoch == watch.gen) return true;
    }
    return false;
  }

  /// One control frame per rank, indexed by rank; empty until it arrives.
  using Reports = std::vector<std::optional<ControlFrame>>;

  /// Waits until every live peer's frame of `kind` is in *got (a later
  /// frame replaces its sender's earlier one) and `ready()` holds over
  /// them. Nothing is awaited from a dead rank, nor from this one.
  template <typename Ready>
  Status AwaitFromLive(Watch watch, ControlKind kind, Reports* got,
                       Ready ready) {
    got->assign(static_cast<size_t>(world_), std::nullopt);
    return Await(watch, [&] {
      ControlFrame f;
      while (TakeFor(watch, kind, &f)) (*got)[static_cast<size_t>(f.rank)] = f;
      for (int r = 0; r < world_; ++r) {
        if (r != rank_ && IsLive(r) && !(*got)[static_cast<size_t>(r)]) {
          return false;
        }
      }
      return ready();
    });
  }

  /// Waits for rank 0's frame of `kind` into *out, running `each_round`
  /// (which returns a Status) before every look.
  template <typename Round>
  Status AwaitFromRankZero(Watch watch, ControlKind kind, ControlFrame* out,
                           Round each_round) {
    return Await(watch, [&]() -> Result<bool> {
      NOMAD_RETURN_IF_ERROR(each_round());
      return TakeFor(watch, kind, out);
    });
  }

  Status AwaitFromRankZero(Watch watch, ControlKind kind, ControlFrame* out) {
    return AwaitFromRankZero(watch, kind, out, [] { return Status::OK(); });
  }

  /// Drops every queued control frame of a protocol phase a death aborted;
  /// only recovery-plane kinds survive. Runs after the flush barrier, when
  /// everything the purged frames were part of has provably arrived.
  void PurgeStaleCtrl() {
    std::deque<ControlFrame> keep;
    for (const ControlFrame& f : ctrl_q_) {
      // kHRowDone survives too: a survivor that raced through the flush
      // barrier may already have finished its census re-broadcast, and its
      // done-frame must not be lost (pre-marker ones were erased when the
      // marker was pumped).
      if (f.kind == ControlKind::kDeathNotice ||
          f.kind == ControlKind::kLeaseSync ||
          f.kind == ControlKind::kTokenRegrant ||
          f.kind == ControlKind::kHRowDone) {
        keep.push_back(f);
      }
    }
    ctrl_q_.swap(keep);
  }

  /// The contiguous user-row ranges this rank owns: its static partition
  /// slice plus everything adopted from dead ranks. Evaluation and the
  /// final gather walk them.
  std::vector<std::pair<int32_t, int32_t>> OwnedRowRanges() const {
    std::vector<std::pair<int32_t, int32_t>> ranges;
    for (int g : my_globals_) {
      const int32_t b = pool_->partition().Begin(g);
      const int32_t e = pool_->partition().End(g);
      if (e <= b) continue;
      if (!ranges.empty() && ranges.back().second == b) {
        ranges.back().second = e;
      } else {
        ranges.emplace_back(b, e);
      }
    }
    return ranges;
  }

  static void Nap() {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

  // ---- the driver ----

  Status DriveToCompletion() {
    bool finished = false;
    while (!finished) {
      const Status step = DriveStep(&finished);
      if (!step.ok()) {
        // A detected death unwinds whatever phase was running as
        // Unavailable; recovery re-establishes the invariants and the loop
        // goes on degraded. Every other error is fatal for this rank.
        if (death_pending_ && step.code() == StatusCode::kUnavailable &&
            world_ > 1) {
          NOMAD_RETURN_IF_ERROR(RunRecovery());
          continue;
        }
        return step;
      }
      if (!finished) Nap();
    }
    return Status::OK();
  }

  Status DriveStep(bool* finished) {
    NOMAD_RETURN_IF_ERROR(Pump());
    NOMAD_RETURN_IF_ERROR(WatchDeaths(Watch{}));
    const int64_t done = pool_->updates();
    const bool out_of_time =
        opt_.max_seconds > 0 &&
        train_seconds_ + wall_.ElapsedSeconds() >= opt_.max_seconds;
    const bool out_of_budget =
        recorder_->update_budget() > 0 && done >= pool_->updates_cap();
    if (rank_ == 0) {
      bool requested = done >= next_threshold_ || out_of_time ||
                       out_of_budget || barrier_after_recovery_;
      ControlFrame req;
      while (TakeCtrl(ControlKind::kBarrierRequest, &req)) {
        if (req.epoch >= epoch_) requested = true;  // stale ones drop
      }
      if (requested) {
        barrier_after_recovery_ = false;
        ControlFrame enter;
        enter.kind = ControlKind::kBarrierEnter;
        enter.rank = 0;
        enter.epoch = epoch_;
        NOMAD_RETURN_IF_ERROR(BroadcastCtrl(enter));
        NOMAD_RETURN_IF_ERROR(RunBarrier(finished));
      }
    } else {
      if ((done >= next_threshold_ || out_of_time || out_of_budget) &&
          !request_sent_) {
        ControlFrame req;
        req.kind = ControlKind::kBarrierRequest;
        req.rank = rank_;
        req.epoch = epoch_;
        NOMAD_RETURN_IF_ERROR(SendCtrl(0, req));
        request_sent_ = true;
      }
      ControlFrame enter;
      if (TakeCtrl(ControlKind::kBarrierEnter, &enter)) {
        // Rank 0's epoch is authoritative: a recovery can leave survivors
        // an epoch apart (some saw the aborted barrier's kResume, some had
        // it purged), so adopt rather than assert.
        epoch_ = enter.epoch;
        NOMAD_RETURN_IF_ERROR(RunBarrier(finished));
      }
    }
    return Status::OK();
  }

  /// One coordinated trace barrier; sets *finished when training is over
  /// (and the final gather has completed). See docs/ARCHITECTURE.md for
  /// the message flow.
  Status RunBarrier(bool* finished) {
    Quiesce();
    barrier_epoch_.Set(epoch_);

    // Phase 1 — conservation: rank 0 waits until every circulating token
    // is parked somewhere (sum of held counts == n ⇔ nothing in flight).
    NOMAD_RETURN_IF_ERROR(AwaitConservation());

    // Phase 2 — h-row exchange: every rank broadcasts the rows it holds,
    // so every rank evaluates against the full current H.
    NOMAD_RETURN_IF_ERROR(SendRowsThenCount(MsgType::kHRow,
                                            ControlKind::kHRowDone, Watch{},
                                            held_, &hrow_received_));

    // Phase 3 — evaluation + trace point. Rank 0 aggregates the partial
    // sums and tells everyone whether to continue.
    bool stop = false;
    NOMAD_RETURN_IF_ERROR(EvaluateAndDecide(&stop));

    if (!stop) {
      Unquiesce(0xBEEF0000ULL + static_cast<uint64_t>(epoch_));
      ++epoch_;
      *finished = false;
      return Status::OK();
    }

    // Phase 4 — final gather: w-row partitions converge on rank 0, which
    // then releases everyone.
    NOMAD_RETURN_IF_ERROR(GatherFinalModel());
    *finished = true;
    return Status::OK();
  }

  /// Parks the workers and herds every local token into held_; idempotent,
  /// so an aborted barrier and the recovery that follows it compose.
  void Quiesce() {
    if (in_barrier_) return;
    pool_->Pause();
    train_seconds_ += wall_.ElapsedSeconds();
    in_barrier_ = true;
    for (int q = 0; q < p_; ++q) {
      while (auto token = pool_->queue(q).TryPop()) {
        held_.push_back(*token);
      }
    }
  }

  /// Undoes Quiesce: re-scatters the held tokens over the local queues
  /// (deterministically, seeded by `salt`), re-arms the epoch pacing and
  /// releases the workers.
  void Unquiesce(uint64_t salt) {
    Rng rescatter(opt_.seed ^ salt);
    for (int32_t j : held_) {
      pool_->queue(static_cast<int>(
                       rescatter.NextBelow(static_cast<uint64_t>(p_))))
          .Push(j);
    }
    held_.clear();
    in_barrier_ = false;
    request_sent_ = false;
    next_threshold_ = pool_->updates() + local_epoch_updates_;
    wall_.Restart();
    pool_->Resume();
  }

  Status AwaitConservation() {
    if (rank_ == 0) {
      const int64_t n = ds_.cols;
      Reports syncs;
      NOMAD_RETURN_IF_ERROR(AwaitFromLive(
          Watch{}, ControlKind::kTraceSync, &syncs, [&] {
            // A dead rank's tokens were re-granted; it reports nothing.
            int64_t sum = static_cast<int64_t>(held_.size());
            for (int r = 1; r < world_; ++r) {
              if (IsLive(r)) sum += syncs[static_cast<size_t>(r)]->held;
            }
            NOMAD_CHECK(sum <= n)
                << "token duplication: " << sum << " held of " << n;
            return sum == n;
          }));
      ControlFrame go;
      go.kind = ControlKind::kEvalStart;
      go.rank = 0;
      go.epoch = epoch_;
      return BroadcastCtrl(go);
    }
    // Report the held count, and again whenever an in-flight token lands,
    // until rank 0 sees every token parked.
    int64_t reported = -1;
    ControlFrame go;
    return AwaitFromRankZero(Watch{}, ControlKind::kEvalStart, &go, [&] {
      if (static_cast<int64_t>(held_.size()) == reported) return Status::OK();
      reported = static_cast<int64_t>(held_.size());
      ControlFrame sync;
      sync.kind = ControlKind::kTraceSync;
      sync.rank = rank_;
      sync.epoch = epoch_;
      sync.held = reported;
      return SendCtrl(0, sync);
    });
  }

  /// Sends this rank's rows `ids` of `type` — kHRow: H rows at their hop
  /// version, to every live peer; kWRow: W rows, to rank 0 — then a
  /// `done_kind` frame with their count. A receiving rank (every rank for
  /// h rows, rank 0 for w rows) then waits until each live peer's count
  /// has arrived and that many of its rows were counted into *received
  /// (Pump counts them), and resets *received for the next exchange.
  Status SendRowsThenCount(MsgType type, ControlKind done_kind, Watch watch,
                           const std::vector<int32_t>& ids,
                           std::vector<int64_t>* received) {
    if (world_ == 1) return Status::OK();
    const bool h_rows = type == MsgType::kHRow;
    if (h_rows || rank_ != 0) {
      std::vector<uint8_t> frame;
      for (int32_t id : ids) {
        if (h_rows) {
          EncodeFactorRow<Real>(
              type, id,
              version_[static_cast<size_t>(id)].load(
                  std::memory_order_relaxed),
              h_.Row(id), k_, &frame);
          NOMAD_RETURN_IF_ERROR(BroadcastLive(frame));
        } else {
          EncodeFactorRow<Real>(type, id, 0u, w_.Row(id), k_, &frame);
          NOMAD_RETURN_IF_ERROR(SendWithRetry(0, frame));
        }
      }
      ControlFrame done;
      done.kind = done_kind;
      done.rank = rank_;
      done.epoch = epoch_;
      done.count = static_cast<int64_t>(ids.size());
      NOMAD_RETURN_IF_ERROR(h_rows ? BroadcastCtrl(done) : SendCtrl(0, done));
    }
    if (!h_rows && rank_ != 0) return Status::OK();
    Reports counts;
    NOMAD_RETURN_IF_ERROR(AwaitFromLive(watch, done_kind, &counts, [&] {
      for (int r = 0; r < world_; ++r) {
        if (r != rank_ && IsLive(r) &&
            (*received)[static_cast<size_t>(r)] <
                counts[static_cast<size_t>(r)]->count) {
          return false;
        }
      }
      return true;
    }));
    received->assign(static_cast<size_t>(world_), 0);
    return Status::OK();
  }

  /// Applies a barrier's outcome on this rank — rank 0 from its own
  /// aggregate, the others from the kResume echo: records the trace point,
  /// takes over the global totals and rate, and installs the leased
  /// update cap (`cap` < 0: no lease).
  void ApplyTracePoint(const TracePoint& pt, int64_t cap) {
    recorder_->Record(pt);
    global_updates_ = pt.updates;
    global_seconds_ = pt.seconds;
    updates_per_second_.Set(
        global_seconds_ > 0.0
            ? static_cast<double>(global_updates_) / global_seconds_
            : 0.0);
    if (cap >= 0) pool_->SetUpdatesCap(cap);
  }

  /// A rank's traffic row, off its kPartialEval frame.
  static RankTrafficStats TrafficRow(const ControlFrame& f) {
    RankTrafficStats t;
    t.rank = f.rank;
    t.tokens_sent = f.tokens_sent;
    t.tokens_received = f.tokens_received;
    t.bytes_sent = f.bytes_sent;
    t.bytes_received = f.bytes_received;
    return t;
  }

  Status EvaluateAndDecide(bool* stop) {
    double sq = 0.0;
    int64_t cnt = 0;
    for (const auto& range : OwnedRowRanges()) {
      sq += SquaredError(ds_.test, w_, h_, range.first, range.second);
      for (int32_t i = range.first; i < range.second; ++i) {
        cnt += ds_.test.RowNnz(i);
      }
    }
    const TransportStats tstats = transport_->stats();
    // The transport gauges are set ONLY here, from the same stats snapshot
    // the kPartialEval frame carries — the final scraped values and
    // rank_traffic's bytes are therefore bit-identical at every barrier.
    transport_bytes_sent_.Set(static_cast<double>(tstats.bytes_sent));
    transport_bytes_received_.Set(
        static_cast<double>(tstats.bytes_received));
    transport_msgs_sent_.Set(static_cast<double>(tstats.messages_sent));
    transport_msgs_received_.Set(
        static_cast<double>(tstats.messages_received));
    ControlFrame mine;
    mine.kind = ControlKind::kPartialEval;
    mine.rank = rank_;
    mine.epoch = epoch_;
    mine.sq_err = sq;
    mine.count = cnt;
    mine.updates = pool_->updates();
    mine.seconds = train_seconds_;
    // Per-run registry deltas: rank_traffic is a view over the same
    // counters the scrape endpoint serves.
    mine.tokens_sent = tokens_sent_.Value() - tokens_sent0_;
    mine.tokens_received = tokens_received_.Value() - tokens_received0_;
    mine.bytes_sent = tstats.bytes_sent;
    mine.bytes_received = tstats.bytes_received;
    rank_traffic_.clear();

    if (rank_ != 0) {
      NOMAD_RETURN_IF_ERROR(SendCtrl(0, mine));
      // Own traffic row, so non-zero ranks still report themselves.
      rank_traffic_.push_back(TrafficRow(mine));
      ControlFrame resume;
      NOMAD_RETURN_IF_ERROR(
          AwaitFromRankZero(Watch{}, ControlKind::kResume, &resume));
      ApplyTracePoint({.seconds = resume.seconds,
                       .updates = resume.updates,
                       .test_rmse = resume.sq_err},
                      resume.held);
      *stop = resume.flag != 0;
      return Status::OK();
    }

    Reports evals;
    NOMAD_RETURN_IF_ERROR(AwaitFromLive(Watch{}, ControlKind::kPartialEval,
                                        &evals, [] { return true; }));
    evals[0] = mine;
    double sq_total = 0.0;
    int64_t cnt_total = 0;
    int64_t updates_total = 0;
    for (const std::optional<ControlFrame>& f : evals) {
      if (!f) continue;  // dead rank: no report
      sq_total += f->sq_err;
      cnt_total += f->count;
      updates_total += f->updates;
      rank_traffic_.push_back(TrafficRow(*f));
    }
    const double rmse =
        cnt_total > 0 ? std::sqrt(sq_total / static_cast<double>(cnt_total))
                      : 0.0;
    *stop = recorder_->Done(updates_total, train_seconds_);
    ControlFrame resume;
    resume.kind = ControlKind::kResume;
    resume.rank = 0;
    resume.epoch = epoch_;
    resume.flag = *stop ? 1 : 0;
    resume.updates = updates_total;
    resume.sq_err = rmse;
    resume.seconds = train_seconds_;
    // With an update budget, re-lease what remains of it across the live
    // ranks as absolute per-rank caps (kResume.held): each rank's workers
    // stop at their cap and request the next barrier, so the job lands
    // within a token batch of the budget instead of overshooting by up to
    // an epoch.
    const int64_t budget = recorder_->update_budget();
    const bool lease = budget > 0 && !*stop;
    const std::vector<int> live = LiveRanks();
    const int64_t remaining =
        lease ? std::max<int64_t>(budget - updates_total, 0) : 0;
    const int64_t nlive = static_cast<int64_t>(live.size());
    for (int64_t i = 0; i < nlive; ++i) {
      const int r = live[static_cast<size_t>(i)];
      resume.held = lease ? evals[static_cast<size_t>(r)]->updates +
                                remaining / nlive +
                                (i < remaining % nlive ? 1 : 0)
                          : -1;
      if (r != 0) {
        NOMAD_RETURN_IF_ERROR(SendCtrl(r, resume));
        continue;
      }
      // Rank 0 is live[0]: its point lands before any kResume leaves.
      ApplyTracePoint({.seconds = train_seconds_,
                       .updates = updates_total,
                       .test_rmse = rmse},
                      resume.held);
    }
    return Status::OK();
  }

  Status GatherFinalModel() {
    const Watch gather{.mode = Watch::kGather};
    std::vector<int32_t> rows;
    if (rank_ != 0) {
      for (const auto& range : OwnedRowRanges()) {
        for (int32_t i = range.first; i < range.second; ++i) rows.push_back(i);
      }
    }
    // Training is over, so a rank dying here gets no recovery: rank 0
    // latches it, keeps whatever w rows it managed to send (this rank's W
    // holds deterministic initial values for the rest), and moves on.
    NOMAD_RETURN_IF_ERROR(SendRowsThenCount(MsgType::kWRow, ControlKind::kWDone,
                                            gather, rows, &wrow_received_));
    ControlFrame bye;
    if (rank_ != 0) {
      return AwaitFromRankZero(gather, ControlKind::kShutdown, &bye);
    }
    bye.kind = ControlKind::kShutdown;
    bye.rank = 0;
    bye.epoch = epoch_;
    return BroadcastCtrl(bye);
  }

  // ---- failure recovery ----

  /// Recovers from the latched deaths: detection → notice → channel flush
  /// → token re-own census → re-grant → partition adoption → resume
  /// (docs/ARCHITECTURE.md, "Failure model"). If another rank dies while
  /// recovery is running, the attempt unwinds (Unavailable) and restarts
  /// with the larger dead set — every step re-derives its state from a
  /// fresh census, so a half-finished attempt leaves nothing to undo.
  Status RunRecovery() {
    for (;;) {
      const Status attempt = RunRecoveryOnce();
      if (attempt.ok()) {
        death_pending_ = false;
        return Status::OK();
      }
      if (attempt.code() != StatusCode::kUnavailable) return attempt;
    }
  }

  Status RunRecoveryOnce() {
    // 0. Quiesce. Inbound tokens herd into held_ from here on; a barrier a
    //    death aborted mid-phase left the workers parked already.
    Quiesce();

    // 1. Announce. Rank 0 (the only death authority) broadcasts the full
    //    dead set under a fresh generation; re-announcing earlier deaths
    //    is idempotent (latching is) and makes restarts self-contained.
    //    The notice carries rank 0's barrier epoch — survivors whose
    //    kResume was lost with the abort re-sync from it.
    int gen = 0;
    if (rank_ == 0) {
      gen = ++recovery_gen_;
      ControlFrame notice;
      notice.kind = ControlKind::kDeathNotice;
      notice.rank = 0;
      notice.epoch = gen;
      notice.held = epoch_;
      for (int d = 0; d < world_; ++d) {
        if (IsLive(d)) continue;
        notice.count = d;
        NOMAD_RETURN_IF_ERROR(BroadcastCtrl(notice));
      }
    } else {
      gen = notice_gen_;
    }
    const Watch watch{.mode = Watch::kRecovery, .gen = gen};
    recovery_generation_.Set(gen);
    NOMAD_LOG(kWarning) << "dist_nomad rank " << rank_
                        << ": recovery generation " << gen << " ("
                        << (world_ - LiveCount()) << " dead, "
                        << LiveCount() << " live)";

    // 2. Flush. Every survivor broadcasts a kLeaseSync marker and waits
    //    for every live peer's marker of this generation. Frames are FIFO
    //    per (sender, receiver) channel, so once a peer's marker is here,
    //    everything it sent before pausing is too — the held-token census
    //    below is exact, with no acknowledgement protocol. Pump() resets a
    //    sender's h-row bookkeeping the moment its marker is processed, so
    //    census traffic from survivors racing ahead of this rank is
    //    counted, while pre-death leftovers are not. Recording starts
    //    before the marker goes out: a racing peer's census rows can
    //    arrive in the same drain as its marker.
    if (rank_ == 0) {
      record_hrow_ids_ = true;
      for (auto& ids : seen_hrow_ids_) ids.clear();
    }
    ControlFrame marker;
    marker.kind = ControlKind::kLeaseSync;
    marker.rank = rank_;
    marker.epoch = gen;
    marker.held = static_cast<int64_t>(held_.size());
    NOMAD_RETURN_IF_ERROR(BroadcastCtrl(marker));
    Reports markers;
    NOMAD_RETURN_IF_ERROR(AwaitFromLive(watch, ControlKind::kLeaseSync,
                                        &markers, [] { return true; }));

    // 3. Reset the aborted protocol: everything those purged frames were
    //    part of has provably arrived. The h-row counters were already
    //    reset per sender by its marker — a wholesale reset here would
    //    wipe census traffic from survivors that raced ahead.
    PurgeStaleCtrl();
    request_sent_ = false;

    // 4. Re-own census: survivors re-broadcast their held h-rows (which
    //    also re-syncs H everywhere); rank 0 records the ids, so the set
    //    of tokens that died with the dead ranks — held there, or in
    //    flight to or from them — is exactly the complement.
    const Status census = SendRowsThenCount(
        MsgType::kHRow, ControlKind::kHRowDone, watch, held_, &hrow_received_);
    record_hrow_ids_ = false;
    NOMAD_RETURN_IF_ERROR(census);

    // 5. Re-grant. Rank 0 re-materializes each missing token from its own
    //    (census-fresh) h-row copy, with a version reset far above any
    //    counter the dead rank could have produced and the wire-level
    //    regrant flag that makes receivers accept the reset. Distribution
    //    is round-robin over the live ranks; the per-channel FIFO makes
    //    the kTokenRegrant notice that follows the tokens double as their
    //    delivery receipt. A restart after a partial re-grant is safe: the
    //    next census sees the re-granted tokens as held and only fills
    //    what is still missing.
    if (rank_ == 0) {
      std::vector<char> seen(static_cast<size_t>(ds_.cols), 0);
      for (const auto& ids : seen_hrow_ids_) {
        for (int32_t id : ids) seen[static_cast<size_t>(id)] = 1;
      }
      for (int32_t j : held_) seen[static_cast<size_t>(j)] = 1;
      const std::vector<int> live = LiveRanks();
      std::vector<int64_t> granted(static_cast<size_t>(world_), 0);
      std::vector<uint8_t> fbuf;
      int64_t missing = 0;
      size_t slot = 0;
      for (int32_t j = 0; j < ds_.cols; ++j) {
        if (seen[static_cast<size_t>(j)]) continue;
        ++missing;
        const uint32_t v =
            version_[static_cast<size_t>(j)].load(std::memory_order_relaxed) +
            kRegrantVersionBump;
        version_[static_cast<size_t>(j)].store(v, std::memory_order_relaxed);
        const int dest = live[slot++ % live.size()];
        if (dest == rank_) {
          held_.push_back(j);
        } else {
          EncodeFactorRow<Real>(MsgType::kToken, j, v, h_.Row(j), k_, &fbuf,
                                kFactorRowFlagRegrant);
          NOMAD_RETURN_IF_ERROR(SendWithRetry(dest, fbuf));
        }
        ++granted[static_cast<size_t>(dest)];
      }
      NOMAD_LOG(kWarning) << "dist_nomad rank 0: re-granted " << missing
                          << " lost tokens across " << live.size()
                          << " survivors";
      ControlFrame receipt;
      receipt.kind = ControlKind::kTokenRegrant;
      receipt.rank = 0;
      receipt.epoch = gen;
      receipt.updates = missing;
      for (int r : live) {
        if (r == rank_) continue;
        receipt.count = granted[static_cast<size_t>(r)];
        NOMAD_RETURN_IF_ERROR(SendCtrl(r, receipt));
      }
    } else {
      ControlFrame receipt;
      NOMAD_RETURN_IF_ERROR(
          AwaitFromRankZero(watch, ControlKind::kTokenRegrant, &receipt));
      epoch_ = static_cast<int>(std::max<int64_t>(epoch_, notice_epoch_));
    }

    // 6. Rebalance: adopt the dead ranks' global workers (deterministic,
    //    message-free — every rank computes the same assignment from the
    //    shared dead set) and re-derive the epoch pacing.
    RecomputeOwnership();

    // 7. Resume degraded. Tokens re-scatter deterministically; rank 0
    //    schedules an immediate barrier so the post-recovery RMSE lands in
    //    the trace (the visible recovery dip).
    if (rank_ == 0) barrier_after_recovery_ = true;
    Unquiesce(0xFEED0000ULL + static_cast<uint64_t>(gen));
    return Status::OK();
  }

  /// Derives this rank's global workers, and the epoch pacing, from the
  /// dead set: global worker g of a dead rank goes to the (slot mod
  /// live)-th live rank, spread round-robin over that rank's local
  /// workers. Pure function of the shared dead set, so all ranks agree
  /// without a message. Workers must be parked (they read worker_globals).
  void RecomputeOwnership() {
    for (int q = 0; q < p_; ++q) {
      pool_->worker_globals(q).assign(1, rank_ * p_ + q);
    }
    my_globals_.clear();
    for (int q = 0; q < p_; ++q) my_globals_.push_back(rank_ * p_ + q);
    const std::vector<int> live = LiveRanks();
    size_t slot = 0;
    for (int r = 0; r < world_; ++r) {
      if (IsLive(r)) continue;
      for (int q = 0; q < p_; ++q) {
        const int g = r * p_ + q;
        const int adopter = live[slot % live.size()];
        const int local_worker =
            static_cast<int>((slot / live.size()) % static_cast<size_t>(p_));
        ++slot;
        if (adopter != rank_) continue;
        pool_->worker_globals(local_worker).push_back(g);
        my_globals_.push_back(g);
      }
    }
    std::sort(my_globals_.begin(), my_globals_.end());
    local_epoch_updates_ = 0;
    for (int g : my_globals_) {
      local_epoch_updates_ += pool_->shards().WorkerNnz(g);
    }
    local_epoch_updates_ = std::max<int64_t>(local_epoch_updates_, 1);
  }

  // ---- immutable run parameters ----
  const Dataset& ds_;
  const DistNomadOptions& o_;
  const TrainOptions& opt_;
  Transport* transport_;
  CodecTransport* codec_ = nullptr;  ///< Non-null iff wire_codec is on:
                                     ///< transport_ viewed as its codec
                                     ///< stack, for the driver's flushes.
  const int world_;
  const int rank_;
  const int p_;
  const int k_;
  const UpdateKernelT<Real>& kernel_;

  // ---- model + data layout ----
  FactorMatrixT<Real> w_;
  FactorMatrixT<Real> h_;
  double remote_prob_ = 0.0;
  int64_t local_epoch_updates_ = 1;

  /// Latched-dead ranks as a bit mask for the workers' remote routing
  /// (advisory; a world over 64 ranks falls back to retry-only). Written
  /// by the driver, read by workers.
  std::atomic<uint64_t> dead_mask_{0};

  // ---- driver/protocol state (driver thread only) ----
  Rng driver_rng_;
  // Hop versions are atomic for one reason: an injected duplicate/delayed
  // frame for token j can reach the driver's stale-discard check while a
  // local worker (the current owner) is bumping version_[j] for its own
  // hand-off. All accesses are relaxed — the counter only grows, and the
  // discard check only needs "≥ the value this rank already accepted",
  // which the driver itself wrote; ownership hand-offs synchronize
  // through the queues and the transport.
  std::vector<std::atomic<uint32_t>> version_;
  std::deque<ControlFrame> ctrl_q_;
  std::vector<int32_t> held_;
  std::vector<int64_t> hrow_received_;
  std::vector<int64_t> wrow_received_;
  bool in_barrier_ = false;
  bool request_sent_ = false;
  int epoch_ = 0;
  int64_t next_threshold_ = 0;
  std::vector<char> dead_;        ///< Latched death verdicts, by rank.
  bool death_pending_ = false;    ///< A latched death awaits recovery.
  int recovery_gen_ = 0;          ///< Rank 0: recovery generations issued.
  int notice_gen_ = 0;            ///< Others: newest kDeathNotice generation.
  int64_t notice_epoch_ = 0;      ///< Others: rank 0's epoch off the notice.
  bool record_hrow_ids_ = false;  ///< Rank 0 census: Pump logs h-row ids.
  std::vector<std::vector<int32_t>> seen_hrow_ids_;  ///< indexed by sender
  std::vector<int> my_globals_;   ///< Global workers this rank owns.
  bool barrier_after_recovery_ = false;
  Stopwatch wall_;
  double train_seconds_ = 0.0;
  int64_t global_updates_ = 0;
  double global_seconds_ = 0.0;
  std::vector<RankTrafficStats> rank_traffic_;

  // ---- observability (obs/metrics.h; handles created in Setup) ----
  // TrainResult::rank_traffic is a view over these cells (kPartialEval
  // frames carry the per-run counter deltas), so the accounting must never
  // degrade: when the resolved registry is disabled (NOMAD_METRICS=off),
  // the run counts into this private registry instead — same cost as the
  // plain atomics it replaced, just nothing scrapes it.
  obs::MetricsRegistry fallback_registry_{true};
  obs::MetricsRegistry* registry_ = nullptr;
  obs::Counter tokens_sent_;       ///< Tokens handed to remote ranks.
  obs::Counter tokens_received_;   ///< Tokens accepted from remote ranks.
  int64_t tokens_sent0_ = 0;       ///< Start values: the counters may be
  int64_t tokens_received0_ = 0;   ///< warm from an earlier run.
  obs::Counter send_retries_;      ///< Extra send attempts after Unavailable.
  obs::Counter heartbeat_misses_;  ///< Dead verdicts read off the transport.
  obs::Counter regrants_;          ///< Re-granted tokens accepted.
  obs::Counter stale_tokens_;      ///< Replayed/duplicate tokens discarded.
  obs::Counter dead_frames_;       ///< Frames from latched-dead ranks dropped.
  // Per-peer solver-payload traffic (what this rank's protocol put on the
  // wire, excluding transport framing and heartbeats), indexed by peer
  // rank; the self slot stays a null handle.
  std::vector<obs::Counter> tx_frames_, tx_bytes_, rx_frames_, rx_bytes_;
  std::vector<obs::Gauge> peer_alive_;   ///< 1 live, 0 latched dead.
  obs::Gauge recovery_generation_;       ///< Newest recovery generation run.
  obs::Gauge barrier_epoch_;             ///< Epoch of the last barrier.
  obs::Gauge updates_per_second_;        ///< Global rate at the last barrier.
  // Whole-transport cumulative stats (framing and heartbeats included),
  // snapshotted in EvaluateAndDecide from the same TransportStats read
  // that fills the kPartialEval frame — which keeps the scraped values and
  // rank_traffic's bytes bit-identical at every barrier.
  obs::Gauge transport_bytes_sent_, transport_bytes_received_;
  obs::Gauge transport_msgs_sent_, transport_msgs_received_;
  /// Pump-round latency (nomad_dist_pump_round_latency_seconds): how long
  /// one full drain of the transport takes — the dist layer's third
  /// hot-path histogram next to the worker service/wait pair.
  obs::Histogram pump_latency_;
  /// The run's result, filled as it goes, and its recorder
  /// (solver/run_recorder.h): rank 0 records the global trace it
  /// coordinates; every other rank records the kResume echoes it applies.
  /// A caller-provided timeline (opt_.timeline) is honored on rank 0 only —
  /// in loopback worlds all ranks share one TrainOptions, and the live
  /// /timeseries view should carry the coordinator's rows, not an
  /// interleaving of every rank's.
  TrainResult result_;
  std::optional<RunRecorder> recorder_;

  // ---- the workers (declared last: destroyed before what they use) ----
  RemoteHandOff handoff_{this};
  std::unique_ptr<TokenWorkerPool<Real, RemoteHandOff>> pool_;
};

template <typename Real>
Result<TrainResult> TrainImpl(const Dataset& ds,
                              const DistNomadOptions& options,
                              Transport* transport) {
  auto kernel = MakeUpdateKernel<Real>(options.train);
  if (!kernel.ok()) return kernel.status();
  // With a wire codec negotiated, the rank sees its transport through a
  // CodecTransport stack — quantize/delta/batch on send, restore on
  // receive — so the protocol code above runs unchanged. The decorator
  // borrows the endpoint; Close() stays the caller's, as documented.
  std::unique_ptr<CodecTransport> codec;
  if (options.wire_codec.enabled()) {
    CodecOptions copts;
    copts.spec = options.wire_codec;
    copts.native = WirePrecisionOf<Real>();
    obs::MetricsRegistry* registry = obs::ResolveRegistry(options.train.metrics);
    copts.registry = registry->enabled() ? registry : nullptr;
    copts.metrics_rank = transport->rank();
    codec = std::make_unique<CodecTransport>(transport, copts);
  }
  RankRun<Real> run(ds, options, codec ? codec.get() : transport,
                    kernel.value(), codec.get());
  return run.Run();
}

}  // namespace

Result<TrainResult> DistNomadSolver::Train(const Dataset& ds,
                                           const DistNomadOptions& options,
                                           Transport* transport) {
  if (transport == nullptr) {
    return Status::InvalidArgument("transport must not be null");
  }
  NOMAD_RETURN_IF_ERROR(ValidateCommonOptions(options.train));
  if (options.train.rank > kMaxWireK) {
    // Enforced here rather than at the first remote hand-off, where the
    // frame encoder would abort the whole job mid-training.
    return Status::InvalidArgument(
        "rank " + std::to_string(options.train.rank) +
        " exceeds the wire-format ceiling of " + std::to_string(kMaxWireK));
  }
  if (options.remote_token_fraction > 1.0) {
    return Status::InvalidArgument("remote_token_fraction must be <= 1");
  }
  if (options.wire_codec.bf16 && options.wire_codec.f16) {
    return Status::InvalidArgument(
        "wire_codec: bf16 and f16 quantization are mutually exclusive");
  }
  if (options.train.record_objective) {
    return Status::InvalidArgument(
        "record_objective is not supported by dist_nomad yet");
  }
  // Every rank transposes consistently under nomadic_rows.
  return TrainNomadic(ds, options.train.nomadic_rows, [&](const Dataset& d) {
    return DispatchPrecision(options.train.precision, [&](auto zero) {
      return TrainImpl<decltype(zero)>(d, options, transport);
    });
  });
}

std::vector<Result<TrainResult>> TrainWorld(
    const Dataset& ds, const DistNomadOptions& options,
    std::vector<std::unique_ptr<Transport>>* endpoints) {
  const int world = static_cast<int>(endpoints->size());
  std::vector<Result<TrainResult>> results(
      static_cast<size_t>(world), Status::Internal("rank did not run"));
  std::vector<std::thread> ranks;
  ranks.reserve(static_cast<size_t>(world));
  for (int r = 0; r < world; ++r) {
    ranks.emplace_back([&, r] {
      DistNomadSolver solver;
      results[static_cast<size_t>(r)] = solver.Train(
          ds, options, (*endpoints)[static_cast<size_t>(r)].get());
    });
  }
  for (auto& t : ranks) t.join();
  return results;
}

std::vector<Result<TrainResult>> TrainLoopbackWorld(
    const Dataset& ds, const DistNomadOptions& options, int world) {
  auto fabric = MakeLoopbackFabric(world);
  return TrainWorld(ds, options, &fabric);
}

}  // namespace net
}  // namespace nomad
