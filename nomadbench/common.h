// Shared pieces of the nomadbench program: the workload table, timing and
// percentile helpers, and the in-memory span tracer of the traced run.
#ifndef NOMADBENCH_COMMON_H_
#define NOMADBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "solver/model.h"

namespace nomadbench {

// ---- workloads ----

/// One benchmark workload: a ratings file of a fixed shape, a training job
/// on it, and the open-loop serving of the model that job saves.
struct Workload {
  std::string name;
  nomad::SyntheticConfig data;  ///< Shape; the seed is set per run.
  bool dist = false;            ///< Train on a 2-rank loopback world.
  /// The traced run also trains on a 2-rank loopback world (1 worker per
  /// rank, bf16+delta+batch codec) and takes the net layer's figures there.
  bool net_probe = false;
  int workers = 3;              ///< Workers (per rank when dist).
  int epochs = 10;
  /// Gate on final_test_rmse, as a fraction of the RMS of the test ratings
  /// (the RMSE of predicting 0).
  double rmse_ceiling_frac = 1.0;
  /// Gate on the saved model's RMSE over its own training ratings, as a
  /// fraction of their RMS: the solver must have fitted the data, not only
  /// shrunk its random initial factors toward 0.
  double train_rmse_ceiling_frac = 1.0;
  double train_share = 0.6;     ///< Share of --seconds spent on jobs.
  double base_qps = 100.0;      ///< First rung of the query ladder.
};

/// Fixed model and serving settings shared by every workload.
inline constexpr int kRank = 32;
inline constexpr int kTokenBatch = 8;  // TrainOptions' default
inline constexpr double kAlpha = 0.05;
inline constexpr double kBeta = 0.01;
inline constexpr double kLambda = 0.05;
inline constexpr double kTestFraction = 0.1;
inline constexpr int kTopN = 10;
inline constexpr int kQueryThreads = 2;
/// Ratings streamed in per second while a model serves: 1% of one
/// applier's capacity. ServeEngine::ApplyRating took 0.6 us per rating on
/// serve_live's catalog (serve.apply_us_per_rating; 4-vCPU x86-64 VM with
/// AVX2), so one applier keeps up with ~1.7M ratings/s. A rating then
/// arrives every 60 us, within RatingIngest's shortest idle sleep (100 us):
/// serve.reflect_p50_ms times that wake-up, the queue and ApplyRating under
/// a steady write stream, not the applier's multi-millisecond idle backoff.
inline constexpr double kIngestPerSecond = 0.01 / 0.6e-6;
inline constexpr double kSloMs = 25.0;
/// time_to_rmse_s ends when test RMSE has made this share of its fall from
/// the first trace point to the job's final value. A fixed RMSE level
/// would be crossed at a point that moves ~10% with the seed's data on the
/// flat curves of the sparse shapes; halfway down, the curves of every seed
/// cross together (on the Yahoo shape after ~2 of 20 epochs; on mf_dense
/// after ~13 of 24).
inline constexpr double kRmseFallShare = 0.5;

/// Looks up a workload by name, scaling its shape by `scale` (1 = the
/// benchmark's shape; the self-tests use a tiny scale). Returns false for
/// an unknown name.
bool FindWorkload(const std::string& name, double scale, Workload* out);

// ---- timing and statistics ----

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank quantile of `v` (q in [0,1]); NaN for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t i = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(i, v.size() - 1)];
}

/// Mean of the middle half of `v` (the interquartile mean); NaN for an
/// empty sample. Unlike the median it moves smoothly when a figure takes
/// one of two levels from job to job, as text loading does.
inline double MiddleMean(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const size_t cut = v.size() / 4;
  double sum = 0.0;
  for (size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

inline double Median(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  std::vector<double> s(v);
  std::sort(s.begin(), s.end());
  const size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

// ---- spans ----

/// In-memory span recorder. Disabled, Open returns -1 and Close is a no-op,
/// so the untraced run pays one branch per call. Spans are written once,
/// by WriteJsonl, when the run ends.
class Tracer {
 public:
  Tracer(bool enabled, std::string run_id)
      : enabled_(enabled), run_id_(std::move(run_id)), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  int64_t Open(const char* name, int64_t parent) {
    if (!enabled_) return -1;
    const double t = Seconds(origin_, Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, parent, t, -1.0});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  void Close(int64_t id) {
    if (id < 0) return;
    const double t = Seconds(origin_, Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end = t;
  }

  struct SelfTime {
    std::string name;
    int64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  /// Per span name: count, summed duration, and summed self time (duration
  /// minus the union of its children's intervals).
  std::vector<SelfTime> SelfTimes() const;

  /// Writes one JSON object per span: id, parent, run, name, start, end.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t parent;
    double start;
    double end;
  };
  const bool enabled_;
  const std::string run_id_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t parent)
      : tracer_(tracer), id_(tracer->Open(name, parent)) {}
  ~ScopedSpan() { tracer_->Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

// ---- open-loop serving ----

/// One rate step of the serving ladder, run on a fresh engine.
struct StepResult {
  double rate = 0.0;
  int64_t offered = 0;
  int64_t completed = 0;
  int64_t failed = 0;           ///< TopN/Submit errors and parity misses.
  int64_t attempted = 0;        ///< Queries + ratings + parity checks.
  double p50_ms = 0.0;          ///< Median over windows of the schedule.
  double p99_ms = 0.0;          ///< Same; dropped queries count as late as
                                ///< they were when the step gave up.
  bool meets_slo = false;
  double capacity_qps = 0.0;    ///< Closed-loop TopN completions per second.
  double load_s = 0.0;          ///< LoadModel.
  double create_s = 0.0;        ///< ServeEngine::Create.
  double peak_rss_mb = 0.0;     ///< Peak RSS of the step, trimmed heap.
  std::vector<double> latency_ms;  ///< Per query, in schedule order.
  std::vector<double> reflect_ms;
  std::vector<double> lag_ms;      ///< Start lateness of queries due while
                                   ///< their thread was idle.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t torn_retries = 0;
  std::string error;            ///< First failure, if any.
};

struct StepConfig {
  std::string model_path;
  const nomad::Model* reference = nullptr;  ///< The model the job saved.
  const std::vector<nomad::Rating>* ingest = nullptr;  ///< Rating stream.
  size_t ingest_offset = 0;     ///< Where in `ingest` this step starts.
  double rate = 0.0;
  double seconds = 1.0;
  uint64_t seed = 1;
  Tracer* tracer = nullptr;
  int64_t parent_span = -1;
  /// When positive, the step ends with this many seconds of closed-loop
  /// TopN on every query thread, which measures capacity_qps.
  double capacity_seconds = 0.0;
};

/// Loads the model file, builds a fresh engine with its own metrics
/// registry, and drives it open-loop: uniform-user TopN(kTopN) due at
/// `rate`, query i run by query thread i % kQueryThreads, plus ratings at
/// kIngestPerSecond through a one-applier RatingIngest. Each query is timed
/// from when it was due. After the step the engine is quiesced, its
/// top-N for sampled users is recorded and the engine is destroyed; then
/// the top-N is compared bit-exactly with offline TopN on a copy of the
/// reference model replayed through the same ratings. So at most one model
/// copy besides `reference` is alive at a time.
StepResult RunServeStep(const StepConfig& config);

}  // namespace nomadbench

#endif  // NOMADBENCH_COMMON_H_
