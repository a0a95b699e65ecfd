#ifndef NOMAD_NET_CODEC_H_
#define NOMAD_NET_CODEC_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/transport.h"
#include "net/wire_format.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace nomad {
namespace net {

/// Wire codecs: composable payload-compression stages layered between the
/// distributed solver and its Transport (the shape of ytsaurus's
/// yt/ytlib/codecs layer, specialized to NOMAD's three frame families).
///
/// Three stages, each independently negotiable:
///  - **bf16 / f16 quantization** of factor-row payloads (kToken/kHRow):
///    the double-accumulating SGD kernels tolerate low-precision *storage*,
///    so the k wire entries shrink 4x (f64) or 2x (f32). kWRow gather
///    frames always stay full precision — the returned model is exact.
///  - **delta encoding** of rows against the receiver's last-seen copy per
///    (peer, column) channel: unchanged entries (common once quantization
///    floors small SGD steps, and across consecutive barrier broadcasts)
///    cost one bitmask bit instead of a full entry. Falls back to full
///    rows whenever it would not strictly shrink the frame, after
///    lease-flush/recovery markers, and for flagged (regrant) tokens.
///  - **batch coalescing**: token frames buffer per peer and ship as one
///    kBatch frame per flush — one transport length prefix instead of one
///    per token. Oversized flushes split into multiple frames, each within
///    the transport's max_frame_bytes.
///
/// Everything here is transparent to the solver: a CodecTransport pair
/// encodes on one end and restores solver-native frames on the other.

/// Converts an IEEE float to bfloat16 (round to nearest even; NaN stays
/// NaN, infinities and signed zeros map exactly).
uint16_t Bf16FromF32(float value);

/// Expands a bfloat16 to the IEEE float it denotes (exact).
float F32FromBf16(uint16_t bits);

/// Converts an IEEE float to IEEE 754 binary16 (round to nearest even,
/// with half subnormals; overflow goes to infinity, NaN stays NaN).
uint16_t F16FromF32(float value);

/// Expands a binary16 to the IEEE float it denotes (exact).
float F32FromF16(uint16_t bits);

/// Which codec stages a job runs. Both ends of every channel must agree —
/// the spec serializes into the Hello handshake's codec byte and the TCP
/// transport refuses mismatched peers, exactly like k and precision.
struct WireCodecSpec {
  bool bf16 = false;   ///< Quantize kToken/kHRow payload entries to bf16.
  bool f16 = false;    ///< Quantize to IEEE half instead (excludes bf16).
  bool delta = false;  ///< Delta-encode rows against the receiver's cache.
  bool batch = false;  ///< Coalesce token frames into kBatch bundles.

  /// True when any stage is on (a disabled spec means "no codec layer").
  bool enabled() const { return bf16 || f16 || delta || batch; }

  /// True when a quantization stage is on.
  bool quantizes() const { return bf16 || f16; }

  /// The wire precision factor-row payloads travel at under this spec
  /// (`native` when no quantization stage is on).
  WirePrecision WireOf(WirePrecision native) const {
    if (bf16) return WirePrecision::kBf16;
    if (f16) return WirePrecision::kF16;
    return native;
  }

  /// One-byte encoding for the Hello handshake (bit 0 bf16, 1 f16,
  /// 2 delta, 3 batch).
  uint8_t ToByte() const;

  /// Decodes a Hello codec byte; unknown bits or bf16+f16 together are
  /// InvalidArgument.
  static Result<WireCodecSpec> FromByte(uint8_t byte);

  /// Parses a CLI spec: "none", or "+"-joined stage names out of
  /// {bf16, f16, delta, batch} (e.g. "bf16+delta"). bf16 and f16 are
  /// mutually exclusive; unknown or repeated stages are InvalidArgument.
  static Result<WireCodecSpec> Parse(const std::string& spec);

  /// Canonical spec string ("none" when disabled).
  std::string ToString() const;

  /// Stage-for-stage equality (what the hello handshake compares).
  bool operator==(const WireCodecSpec& other) const {
    return bf16 == other.bf16 && f16 == other.f16 && delta == other.delta &&
           batch == other.batch;
  }
};

/// Coalesces `frames` into one kBatch payload:
/// [type u8][reserved u8][count u16] then count x [u32 len][frame bytes].
/// Exposed for tests; CodecTransport sizes its bundles itself.
void EncodeBatch(const std::vector<std::vector<uint8_t>>& frames,
                 std::vector<uint8_t>* out);

/// Splits a kBatch payload back into its sub-frames, validating the header,
/// that every sub-frame is non-empty, and that the lengths tile the payload
/// exactly; anything else is InvalidArgument.
Result<std::vector<std::vector<uint8_t>>> DecodeBatch(const uint8_t* data,
                                                      size_t size);

/// Tuning knobs and wiring for one CodecTransport endpoint.
struct CodecOptions {
  WireCodecSpec spec;  ///< Stages to run (must match every peer's).

  /// Solver-native factor precision: what EncodeFactorRow produced on the
  /// send side and what the receive side restores frames to.
  WirePrecision native = WirePrecision::kF64;

  /// Ceiling on any single transport payload this codec emits. Must not
  /// exceed the transport's own limit (TcpOptions::max_frame_bytes) —
  /// coalesced flushes larger than this split into multiple frames.
  size_t max_frame_bytes = 1 << 22;

  /// Flush a peer's batch buffer once it holds this many frames…
  int batch_max_frames = 64;
  /// …or this many payload bytes, whichever comes first.
  size_t batch_max_bytes = 1 << 14;

  /// Registry for the nomad_dist_codec_* series (null = a private one
  /// nothing scrapes) and the rank label they carry.
  obs::MetricsRegistry* registry = nullptr;
  int metrics_rank = -1;  ///< Value of the `rank` label.
};

/// Decorates a Transport with the negotiated codec stages. The solver
/// stacks one of these over whatever endpoint it was handed (loopback,
/// TCP, or a FaultInjectingTransport), so every stage composes with fault
/// injection and heartbeats unchanged.
///
/// Contract notes on top of Transport's:
///  - Send() keeps the per-(sender, receiver) FIFO order: buffered tokens
///    are flushed before any non-token frame to the same peer goes out.
///  - With batching on, an accepted token may sit in the per-peer buffer
///    until the next threshold crossing or FlushAll() — the solver's
///    driver flushes every pump step, bounding the latency, and a flush
///    that fails (peer unavailable) keeps the frames buffered for retry.
///  - Delta caches are invalidated by the recovery protocol's kLeaseSync
///    channel markers on both ends of each channel (same FIFO position),
///    so post-recovery rows always go full — regrants never decode
///    against pre-death state.
///  - A delta frame whose base version misses the receiver cache is
///    dropped (counted in stale_rejects). Per-channel FIFO plus exclusive
///    token ownership guarantee this only happens to injected duplicate or
///    re-ordered replicas, which the solver's hop-version check would
///    discard anyway.
class CodecTransport final : public Transport {
 public:
  /// Borrows `base` (not owned; must outlive this decorator).
  CodecTransport(Transport* base, const CodecOptions& options);
  ~CodecTransport() override;

  int rank() const override;   ///< Forwards to the base transport.
  int world() const override;  ///< Forwards to the base transport.

  /// Encodes `frame` through the negotiated stages and forwards it (or
  /// buffers it, with batching on — see the class comment).
  Status Send(int dest, std::vector<uint8_t> frame) override;

  /// Pops the next solver-visible frame: unwraps kBatch bundles, restores
  /// quantized/delta factor rows to the native precision, drops stale
  /// delta replicas, and passes control frames through.
  bool TryReceive(std::vector<uint8_t>* frame, int* src) override;

  TransportStats stats() const override;  ///< Base stats (post-codec bytes).

  PeerStatus peer_status(int peer) const override;  ///< Forwards to base.

  /// Flushes every peer's batch buffer now. The distributed driver calls
  /// this once per pump step and before quiescing, so buffered tokens
  /// never stall the conservation census. No-op without the batch stage.
  Status FlushAll();

  /// FlushAll(), then closes the base transport.
  Status Close() override;

  /// The spec this endpoint runs.
  const WireCodecSpec& spec() const { return options_.spec; }

  /// Counters of this endpoint's codec work so far (thread-safe snapshot):
  /// a view over its nomad_dist_codec_* registry series.
  struct CodecStats {
    int64_t raw_bytes = 0;      ///< Payload bytes accepted from the solver.
    int64_t coded_bytes = 0;    ///< Payload bytes handed to the transport.
    int64_t delta_hits = 0;     ///< Rows shipped as deltas.
    int64_t delta_full = 0;     ///< Delta-eligible rows shipped full.
    int64_t stale_rejects = 0;  ///< Delta replicas dropped on receive.
    int64_t flushes = 0;        ///< Batch flushes that shipped frames.
    int64_t split_flushes = 0;  ///< Flushes split over several frames.
  };
  /// Snapshot of the counters above.
  CodecStats codec_stats() const;

 private:
  /// Last row seen per (peer, column) on one directed channel: the hop
  /// version and the wire-precision entry bytes deltas are taken against.
  struct RowCache {
    uint32_t version = 0;
    std::vector<uint8_t> entries;
  };

  /// Per-destination sender state (mutex-guarded: workers send
  /// concurrently).
  struct PeerTx {
    std::mutex mu;
    std::map<int32_t, RowCache> cache;          // delta baseline per column
    std::deque<std::vector<uint8_t>> buffer;    // coalescing buffer
    size_t buffered_bytes = 0;
  };

  /// Per-source receiver state (driver thread only — no lock needed).
  struct PeerRx {
    std::map<int32_t, RowCache> cache;
  };

  /// Quantize + delta stages for one outgoing factor row; returns the wire
  /// frame and records the cache update to apply once the bytes are
  /// committed (buffered or accepted by the base transport).
  std::vector<uint8_t> EncodeFactorForWire(PeerTx* tx,
                                           const std::vector<uint8_t>& frame,
                                           int32_t* cache_id,
                                           RowCache* cache_update);

  /// Restores one received wire factor row to a native frame in place;
  /// false = stale delta replica, drop it.
  bool DecodeFactorForSolver(int src, std::vector<uint8_t>* frame);

  /// Sends tx->buffer to `dest` as max_frame_bytes-sized kBatch bundles
  /// (requires tx->mu held). On error the unsent tail stays buffered.
  Status FlushLocked(int dest, PeerTx* tx);

  Transport* const base_;
  const CodecOptions options_;
  const size_t native_entry_bytes_;
  const size_t wire_entry_bytes_;

  std::vector<std::unique_ptr<PeerTx>> tx_;  // index: destination rank
  std::vector<PeerRx> rx_;                   // index: source rank
  std::deque<std::pair<int, std::vector<uint8_t>>> unbatched_;

  // The codec work counters, in options_.registry or in the private
  // fallback; codec_stats() reads them minus their values at
  // construction, since a shared registry's cells may be warm.
  obs::MetricsRegistry fallback_registry_{true};
  obs::Counter raw_bytes_, coded_bytes_, delta_hits_, delta_full_;
  obs::Counter stale_rejects_, flushes_, split_flushes_;
  CodecStats start_;
};

}  // namespace net
}  // namespace nomad

#endif  // NOMAD_NET_CODEC_H_
