// TokenWorkerPool: the one NOMAD token loop behind the shared-memory and the
// distributed solver. These tests drive the pool directly with a fake
// hand-off policy that forwards a seeded share of tokens and returns them
// the way a fast peer would, and check the invariants every driver relies
// on: token conservation at each pause, exclusive ownership (AcquireOrDie
// aborts the process otherwise), and the update cap.

#include "nomad/token_worker_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sched/schedule.h"
#include "test_util.h"

namespace nomad {
namespace {

struct BouncingHandOff;
using BouncingPool = TokenWorkerPool<double, BouncingHandOff>;

// Forwards each processed token with probability `forward_prob`. Even
// tokens come straight back into a local queue inside Send, right after the
// pool released them: a peer bouncing the token before Send returns. Odd
// tokens stay on a fake wire until the driver delivers them during a pause.
struct BouncingHandOff {
  struct Buffer {
    int32_t token = -1;
  };

  BouncingPool* pool = nullptr;
  int workers = 1;
  double forward_prob = 0.0;
  std::atomic<int64_t> forwarded{0};
  std::atomic<int64_t> bounced{0};
  std::mutex mu;
  std::vector<int32_t> wire;  // guarded by mu

  int PickRemote(Rng* rng) const {
    return rng->NextDouble() < forward_prob ? 1 : -1;
  }
  void Encode(int32_t j, Buffer* buf) const { buf->token = j; }
  bool Send(int /*dest*/, const Buffer& buf) {
    forwarded.fetch_add(1, std::memory_order_relaxed);
    if (buf.token % 2 == 0) {
      pool->queue(buf.token % workers).Push(buf.token);
      bounced.fetch_add(1, std::memory_order_relaxed);
    } else {
      std::lock_guard<std::mutex> lock(mu);
      wire.push_back(buf.token);
    }
    return true;
  }

  // Driver side, pool paused.
  std::vector<int32_t> OnWire() {
    std::lock_guard<std::mutex> lock(mu);
    return wire;
  }
  void Deliver() {
    std::lock_guard<std::mutex> lock(mu);
    for (int32_t j : wire) pool->queue(j % workers).Push(j);
    wire.clear();
  }
};

// Everything a pool borrows, kept alive for the pool's lifetime.
struct Fixture {
  explicit Fixture(int workers)
      : ds(MakeTestDataset(/*rows=*/400, /*cols=*/120, /*nnz=*/9000)),
        options(FastTrainOptions(/*epochs=*/1, workers)),
        kernel(MakeUpdateKernel<double>(options).value()) {
    InitFactorsT<double>(ds, options, &w, &h);
  }

  std::unique_ptr<BouncingPool> MakePool(BouncingHandOff* handoff, int world,
                                         int rank) {
    auto pool = std::make_unique<BouncingPool>(ds, options, world, rank, &w,
                                               &h, kernel, &registry, handoff);
    handoff->pool = pool.get();
    handoff->workers = options.num_workers;
    return pool;
  }

  Dataset ds;
  TrainOptions options;
  UpdateKernelT<double> kernel;
  FactorMatrix w;
  FactorMatrix h;
  obs::MetricsRegistry registry{true};
};

// Drains every queue of a parked pool and pushes the tokens back; returns
// what was queued.
std::vector<int32_t> QueuedTokens(BouncingPool* pool, int workers) {
  std::vector<int32_t> all;
  for (int q = 0; q < workers; ++q) {
    std::vector<int32_t> mine;
    while (auto token = pool->queue(q).TryPop()) mine.push_back(*token);
    for (int32_t j : mine) pool->queue(q).Push(j);
    all.insert(all.end(), mine.begin(), mine.end());
  }
  return all;
}

// Every token is in exactly one place: a queue or the wire.
void ExpectConserved(BouncingPool* pool, BouncingHandOff* handoff,
                     int workers, int32_t cols) {
  std::vector<int32_t> seen = QueuedTokens(pool, workers);
  const std::vector<int32_t> wire = handoff->OnWire();
  seen.insert(seen.end(), wire.begin(), wire.end());
  ASSERT_EQ(static_cast<int64_t>(seen.size()), cols)
      << "queued + forwarded must equal cols";
  std::sort(seen.begin(), seen.end());
  for (int32_t j = 0; j < cols; ++j) {
    ASSERT_EQ(seen[static_cast<size_t>(j)], j) << "token lost or duplicated";
  }
}

// Largest number of ratings any one worker holds in one column: the most a
// worker can apply between its cap check and its counter update.
int64_t MaxColumnShare(const ColumnShards& shards, int workers, int32_t cols) {
  int64_t most = 0;
  for (int g = 0; g < workers; ++g) {
    for (int32_t j = 0; j < cols; ++j) {
      int32_t n = 0;
      shards.ColEntries(g, j, &n);
      most = std::max<int64_t>(most, n);
    }
  }
  return most;
}

TEST(TokenWorkerPoolTest, ConservesTokensWhileForwardedTokensBounceBack) {
  constexpr int kWorkers = 4;
  Fixture fx(kWorkers);
  BouncingHandOff handoff;
  handoff.forward_prob = 0.3;
  auto pool = fx.MakePool(&handoff, /*world=*/1, /*rank=*/-1);
  const int32_t cols = fx.ds.cols;
  pool->Start();
  int64_t last_updates = 0;
  for (int pause = 0; pause < 25; ++pause) {
    // Let the workers make progress (bounded, so a wedged pool fails the
    // progress check below instead of hanging).
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (pool->updates() < last_updates + 2000 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    pool->Pause();
    ASSERT_NO_FATAL_FAILURE(
        ExpectConserved(pool.get(), &handoff, kWorkers, cols));
    EXPECT_GT(pool->updates(), last_updates) << "pause " << pause;
    last_updates = pool->updates();
    handoff.Deliver();
    pool->Resume();
  }
  pool->Pause();
  ASSERT_NO_FATAL_FAILURE(
      ExpectConserved(pool.get(), &handoff, kWorkers, cols));
  pool->Stop();
  EXPECT_GT(handoff.forwarded.load(), 0);
  EXPECT_GT(handoff.bounced.load(), 0);
  EXPECT_LT(handoff.bounced.load(), handoff.forwarded.load());
  ASSERT_EQ(pool->batch_stats().size(), static_cast<size_t>(kWorkers));
}

TEST(TokenWorkerPoolTest, UpdatesCapHoldsWithinOneColumnPerWorker) {
  constexpr int kWorkers = 4;
  Fixture fx(kWorkers);
  BouncingHandOff handoff;
  handoff.forward_prob = 0.2;
  auto pool = fx.MakePool(&handoff, /*world=*/1, /*rank=*/-1);
  const int64_t slack =
      kWorkers * MaxColumnShare(pool->shards(), kWorkers, fx.ds.cols);
  ASSERT_GT(slack, 0);
  pool->SetUpdatesCap(1000);
  pool->Start();
  for (int64_t cap : {1000, 3000, 6000}) {
    pool->SetUpdatesCap(cap);
    pool->Resume();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (pool->updates() < cap &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    // Tokens keep circulating past the cap; give every worker time to pass
    // its check on a stale counter if the cap leaked.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    pool->Pause();
    EXPECT_GE(pool->updates(), cap);
    EXPECT_LT(pool->updates(), cap + slack) << "cap " << cap;
    ASSERT_NO_FATAL_FAILURE(
        ExpectConserved(pool.get(), &handoff, kWorkers, fx.ds.cols));
    handoff.Deliver();
  }
  pool->Stop();
}

TEST(TokenWorkerPoolTest, ScatterSplitsTokensAcrossRanksExactlyOnce) {
  constexpr int kWorkers = 3;
  Fixture fx(kWorkers);
  // World 1 is Algorithm 1's scatter: token j to a uniformly drawn worker.
  std::vector<std::vector<int32_t>> expected(kWorkers);
  Rng draw(fx.options.seed ^ 0xA5A5A5A5ULL);
  for (int32_t j = 0; j < fx.ds.cols; ++j) {
    expected[draw.NextBelow(kWorkers)].push_back(j);
  }
  BouncingHandOff solo;
  auto shared_memory = fx.MakePool(&solo, /*world=*/1, /*rank=*/-1);
  for (int q = 0; q < kWorkers; ++q) {
    std::vector<int32_t> got;
    while (auto token = shared_memory->queue(q).TryPop()) got.push_back(*token);
    EXPECT_EQ(got, expected[static_cast<size_t>(q)]) << "worker " << q;
  }

  // At world 3 every rank keeps its share of the same draw.
  std::vector<int32_t> all;
  BouncingHandOff policies[3];
  for (int rank = 0; rank < 3; ++rank) {
    auto pool = fx.MakePool(&policies[rank], /*world=*/3, rank);
    const std::vector<int32_t> mine = QueuedTokens(pool.get(), kWorkers);
    EXPECT_FALSE(mine.empty()) << "rank " << rank;
    all.insert(all.end(), mine.begin(), mine.end());
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(static_cast<int32_t>(all.size()), fx.ds.cols);
  for (int32_t j = 0; j < fx.ds.cols; ++j) {
    EXPECT_EQ(all[static_cast<size_t>(j)], j);
  }
}

}  // namespace
}  // namespace nomad
