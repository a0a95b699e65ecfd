#include "probes.h"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common.h"
#include "data/shard.h"
#include "linalg/score_ops.h"
#include "linalg/simd_ops.h"
#include "net/codec.h"
#include "net/loopback_transport.h"
#include "net/wire_format.h"
#include "nomad/token_router.h"
#include "queue/mpmc_queue.h"
#include "serve/engine.h"
#include "util/rng.h"
#include "util/logging.h"

namespace nomadbench {
namespace {

// Each probe repeats its unit of work until it has run this long.
constexpr double kProbeSeconds = 0.25;

// Keeps a computed value alive so the timed loop is not folded away.
template <typename T>
void Sink(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

}  // namespace

double ProbeShardSeconds(const nomad::SparseMatrix& train, int workers) {
  std::vector<double> runs;
  const Clock::time_point begin = Clock::now();
  do {
    const Clock::time_point t0 = Clock::now();
    const nomad::UserPartition part =
        nomad::UserPartition::ByRatings(train, workers);
    const nomad::ColumnShards shards = nomad::ColumnShards::Build(train, part);
    Sink(shards);
    runs.push_back(Seconds(t0, Clock::now()));
  } while (runs.size() < 3 && Seconds(begin, Clock::now()) < kProbeSeconds);
  return Median(runs);
}

double ProbeSgdNsPerUpdate(const nomad::SparseMatrix& train, int workers,
                           int k) {
  // Worker 0's shard, visited the way its token loop visits it: one h row
  // per column against the w rows of that column's raters in its partition.
  const nomad::ColumnShards shards = nomad::ColumnShards::Build(
      train, nomad::UserPartition::ByRatings(train, workers));
  const auto& table = nomad::simd::ActiveTable<double>();
  nomad::FactorMatrix w(train.rows(), k);
  nomad::FactorMatrix h(train.cols(), k);
  nomad::Rng rng(3);
  w.InitUniform(&rng);
  h.InitUniform(&rng);
  int64_t updates = 0;
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0.0;
  double sink = 0.0;
  while (elapsed < kProbeSeconds) {
    for (int32_t j = 0; j < train.cols(); ++j) {
      int32_t n = 0;
      const nomad::ColumnShards::Entry* entries = shards.ColEntries(0, j, &n);
      double* hj = h.Row(j);
      for (int32_t t = 0; t < n; ++t) {
        sink += table.sgd_update_pair(entries[t].value, 1e-4, kLambda,
                                      w.Row(entries[t].row), hj, k);
      }
      updates += n;
    }
    elapsed = Seconds(t0, Clock::now());
  }
  Sink(sink);
  return updates > 0 ? 1e9 * elapsed / static_cast<double>(updates) : 0.0;
}

HandoffProbe ProbeHandoff(int workers, int batch, int32_t tokens) {
  std::vector<std::unique_ptr<nomad::MpmcQueue<int32_t>>> queues;
  for (int q = 0; q < workers; ++q) {
    queues.push_back(std::make_unique<nomad::MpmcQueue<int32_t>>());
  }
  nomad::Rng scatter(7);
  for (int32_t j = 0; j < tokens; ++j) {
    queues[scatter.NextBelow(static_cast<uint64_t>(workers))]->Push(j);
  }
  const nomad::TokenRouter router(nomad::Routing::kUniform, workers);
  const nomad::TokenRouter::SizeProbe size_probe = [&](int q) {
    return queues[static_cast<size_t>(q)]->SizeEstimate();
  };
  std::atomic<bool> stop{false};
  std::atomic<int64_t> moved{0};
  std::atomic<int64_t> ops{0};
  std::vector<std::thread> threads;
  const Clock::time_point t0 = Clock::now();
  for (int q = 0; q < workers; ++q) {
    threads.emplace_back([&, q] {
      nomad::Rng rng(1000 + static_cast<uint64_t>(q));
      std::vector<int32_t> held(static_cast<size_t>(batch));
      std::vector<int> dests(static_cast<size_t>(batch));
      std::vector<std::vector<int32_t>> out(static_cast<size_t>(workers));
      int64_t local_moved = 0;
      int64_t local_ops = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t got = queues[static_cast<size_t>(q)]->TryPopBatch(
            held.data(), static_cast<size_t>(batch));
        ++local_ops;
        if (got == 0) {
          std::this_thread::yield();
          continue;
        }
        router.PickBatch(q, &rng, size_probe, static_cast<int>(got),
                         dests.data());
        for (size_t b = 0; b < got; ++b) {
          out[static_cast<size_t>(dests[b])].push_back(held[b]);
        }
        for (int d = 0; d < workers; ++d) {
          auto& buf = out[static_cast<size_t>(d)];
          if (buf.empty()) continue;
          queues[static_cast<size_t>(d)]->PushBatch(buf.data(), buf.size());
          ++local_ops;
          buf.clear();
        }
        local_moved += static_cast<int64_t>(got);
      }
      moved.fetch_add(local_moved);
      ops.fetch_add(local_ops);
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(kProbeSeconds));
  stop.store(true);
  for (auto& t : threads) t.join();
  const double elapsed = Seconds(t0, Clock::now());
  HandoffProbe probe;
  const double n = static_cast<double>(std::max<int64_t>(1, moved.load()));
  probe.ns_per_token = 1e9 * elapsed * workers / n;
  probe.ops_per_token = static_cast<double>(ops.load()) / n;
  return probe;
}

namespace {

// Sends every h row of `model` as a token frame from rank 0 to rank 1 for
// `rounds` rounds, drifting each row by one SGD step between rounds, and
// receives them all. Returns the elapsed seconds and the frames sent.
double PumpRows(nomad::net::Transport* tx, nomad::net::Transport* rx,
                nomad::net::CodecTransport* codec, nomad::FactorMatrix h,
                nomad::FactorMatrix* w, int rounds, int64_t* frames) {
  const auto& table = nomad::simd::ActiveTable<double>();
  const int k = h.cols();
  std::vector<uint8_t> frame;
  std::vector<uint8_t> in;
  int src = -1;
  nomad::Rng rng(11);
  *frames = 0;
  double busy = 0.0;
  for (int r = 0; r < rounds; ++r) {
    for (int64_t j = 0; j < h.rows(); ++j) {
      const int64_t i = static_cast<int64_t>(
          rng.NextBelow(static_cast<uint64_t>(w->rows())));
      table.sgd_update_pair(1.0, 0.01, kLambda, w->Row(i), h.Row(j), k);
    }
    const Clock::time_point t0 = Clock::now();
    int64_t received = 0;
    for (int64_t j = 0; j < h.rows(); ++j) {
      nomad::net::EncodeFactorRow<double>(
          nomad::net::MsgType::kToken, static_cast<int32_t>(j),
          static_cast<uint32_t>(r + 1), h.Row(j), k, &frame);
      NOMAD_CHECK(tx->Send(1, frame).ok());
      if (codec != nullptr && (j + 1) % 64 == 0) {
        NOMAD_CHECK(codec->FlushAll().ok());
      }
      while (rx->TryReceive(&in, &src)) ++received;
    }
    if (codec != nullptr) NOMAD_CHECK(codec->FlushAll().ok());
    while (received < h.rows()) {
      if (rx->TryReceive(&in, &src)) ++received;
    }
    busy += Seconds(t0, Clock::now());
    *frames += h.rows();
  }
  return busy;
}

}  // namespace

CodecProbe ProbeCodec(const nomad::Model& model) {
  namespace net = nomad::net;
  // Enough rounds for the delta stage to see each row more than once, and
  // at least ~64k frames so the timing is not one cache-cold pass.
  const int rounds = static_cast<int>(std::clamp<int64_t>(
      (1 << 16) / std::max<int64_t>(1, model.items()), 3, 64));
  // Drift on a private copy of w: the probe must not touch the caller's.
  nomad::FactorMatrix w = model.w;
  CodecProbe probe;
  {
    auto fabric = net::MakeLoopbackFabric(2);
    auto spec = net::WireCodecSpec::Parse("bf16+delta+batch");
    NOMAD_CHECK(spec.ok());
    net::CodecOptions options;
    options.spec = spec.value();
    net::CodecTransport send(fabric[0].get(), options);
    net::CodecTransport recv(fabric[1].get(), options);
    int64_t frames = 0;
    const double s = PumpRows(&send, &recv, &send, model.h, &w, rounds, &frames);
    probe.codec_ns_per_row = 1e9 * s / static_cast<double>(frames);
  }
  {
    auto fabric = net::MakeLoopbackFabric(2);
    int64_t frames = 0;
    const double s = PumpRows(fabric[0].get(), fabric[1].get(), nullptr,
                              model.h, &w, rounds, &frames);
    probe.transport_ns_per_frame = 1e9 * s / static_cast<double>(frames);
  }
  return probe;
}

double ProbeScanNsPerItemK(const nomad::Model& model) {
  const int k = model.rank();
  std::vector<double> scores(static_cast<size_t>(model.items()));
  int64_t scans = 0;
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0.0;
  while (elapsed < kProbeSeconds) {
    const int64_t u = scans % model.users();
    nomad::ScoreRows(model.w.Row(u), model.h, 0, model.items(),
                     scores.data());
    Sink(scores);
    ++scans;
    elapsed = Seconds(t0, Clock::now());
  }
  return 1e9 * elapsed /
         (static_cast<double>(scans) * static_cast<double>(model.items()) * k);
}

EngineProbe ProbeEngine(const nomad::Model& model,
                        const nomad::SparseMatrix& ratings) {
  EngineProbe probe;
  nomad::serve::ServeOptions options;
  nomad::obs::MetricsRegistry registry;
  options.metrics = &registry;
  auto created = nomad::serve::ServeEngine::Create(model, options);
  NOMAD_CHECK(created.ok()) << created.status().ToString();
  auto& engine = *created.value();
  std::vector<double> lat;
  const Clock::time_point begin = Clock::now();
  // Distinct users, so every query misses the candidate cache.
  for (int64_t u = 0; u < engine.users() &&
                      (lat.size() < 20 ||
                       Seconds(begin, Clock::now()) < kProbeSeconds);
       ++u) {
    const Clock::time_point t0 = Clock::now();
    auto r = engine.TopN(static_cast<int32_t>(u), kTopN);
    lat.push_back(1e3 * Seconds(t0, Clock::now()));
    NOMAD_CHECK(r.ok());
  }
  probe.topn_miss_ms = Median(lat);

  const std::vector<nomad::Rating> coo = ratings.ToCoo();
  int64_t applied = 0;
  const Clock::time_point t1 = Clock::now();
  double elapsed = 0.0;
  while (elapsed < kProbeSeconds && !coo.empty()) {
    const nomad::Rating& r = coo[static_cast<size_t>(applied) % coo.size()];
    NOMAD_CHECK(engine.ApplyRating(r.row, r.col, r.value, 0).ok());
    ++applied;
    if (applied % 64 == 0) elapsed = Seconds(t1, Clock::now());
  }
  probe.apply_us_per_rating =
      applied > 0 ? 1e6 * elapsed / static_cast<double>(applied) : 0.0;
  return probe;
}

}  // namespace nomadbench
